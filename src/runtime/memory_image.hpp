#ifndef GMT_RUNTIME_MEMORY_IMAGE_HPP
#define GMT_RUNTIME_MEMORY_IMAGE_HPP

/**
 * @file
 * The flat data memory both interpreters execute against. Addresses
 * are cell indices (one cell = one int64). Workloads allocate named
 * regions and fill them with inputs; the equivalence oracle compares
 * whole images after execution.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace gmt
{

/** Flat 64-bit-cell memory with bump allocation. */
class MemoryImage
{
  public:
    MemoryImage() = default;

    /** Allocate @p cells zero-initialized cells. @return base address. */
    int64_t alloc(int64_t cells);

    /** Bounds-checked load: out of range raises a FatalError. */
    int64_t read(int64_t addr) const
    {
        if (static_cast<uint64_t>(addr) >= cells_.size())
            outOfBounds("read", addr);
        return cells_[static_cast<size_t>(addr)];
    }

    /** Bounds-checked store: out of range raises a FatalError. */
    void write(int64_t addr, int64_t value)
    {
        if (static_cast<uint64_t>(addr) >= cells_.size())
            outOfBounds("write", addr);
        cells_[static_cast<size_t>(addr)] = value;
    }

    int64_t size() const { return static_cast<int64_t>(cells_.size()); }

    const std::vector<int64_t> &cells() const { return cells_; }

    bool operator==(const MemoryImage &) const = default;

  private:
    /** "memory <what> out of bounds: addr=<addr> size=<size>". */
    [[noreturn]] void outOfBounds(const char *what, int64_t addr) const;

    std::vector<int64_t> cells_;
};

} // namespace gmt

#endif // GMT_RUNTIME_MEMORY_IMAGE_HPP
