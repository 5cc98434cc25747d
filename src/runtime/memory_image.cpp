#include "runtime/memory_image.hpp"

#include "support/error.hpp"

namespace gmt
{

int64_t
MemoryImage::alloc(int64_t cells)
{
    GMT_ASSERT(cells >= 0);
    int64_t base = size();
    cells_.resize(cells_.size() + static_cast<size_t>(cells), 0);
    return base;
}

void
MemoryImage::outOfBounds(const char *what, int64_t addr) const
{
    fatal("memory ", what, " out of bounds: addr=", addr, " size=", size());
}

} // namespace gmt
