#ifndef GMT_WORKLOADS_WORKLOAD_HPP
#define GMT_WORKLOADS_WORKLOAD_HPP

/**
 * @file
 * The benchmark kernels of the paper's Figure 6(b).
 *
 * The paper parallelizes one hot function from each of 11 MediaBench /
 * SPEC-CPU / Pointer-Intensive applications. The originals are not
 * redistributable, so each kernel here is a hand-written IR program
 * that mirrors the corresponding function's loop structure, control
 * flow, data recurrences, and memory access pattern (the features the
 * partitioners and COCO react to) — see DESIGN.md's substitution
 * table. Profiles are collected on `train` inputs and all measurements
 * run on larger `ref` inputs, matching the paper's methodology.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "runtime/memory_image.hpp"

namespace gmt
{

/** One benchmark kernel plus its inputs. */
struct Workload
{
    std::string name;          ///< e.g. "adpcmdec"
    std::string function_name; ///< e.g. "adpcm_decoder"
    int exec_percent = 100;    ///< Figure 6(b) "Exec. %"

    Function func{""};

    /** Cells of data memory the kernel addresses. */
    int64_t mem_cells = 0;

    std::vector<int64_t> train_args;
    std::vector<int64_t> ref_args;

    /**
     * Deterministically fill input regions of a fresh MemoryImage
     * (which already has mem_cells allocated). @p ref selects the
     * reference (vs train) input content.
     */
    std::function<void(MemoryImage &, bool ref)> fill;

    /**
     * Where the cell came from: empty for built-in builders, the file
     * path for cells loaded from a `.gmt` corpus, "<fuzz>" for
     * generated cells.
     */
    std::string source;

    /**
     * Hex FNV-1a digest of the cell's canonical text (see
     * workloads/serialize.hpp); empty for built-in builders.
     */
    std::string digest;

    /**
     * ArtifactCache identity of the cell. Built-ins keep the bare name
     * (so cache keys — and thus figure outputs — are unchanged from
     * the hard-coded era); loaded/generated cells append the content
     * digest so two different cells sharing a name never collide.
     */
    std::string
    cacheKey() const
    {
        return digest.empty() ? name : name + "#" + digest;
    }
};

/**
 * A fresh MemoryImage of @p w's mem_cells, filled with its reference
 * (@p ref) or train input: the one place a workload's input image is
 * built.
 */
MemoryImage workloadMemory(const Workload &w, bool ref);

/** Factories, one per Figure 6(b) row. */
Workload makeAdpcmDec();
Workload makeAdpcmEnc();
Workload makeKs();
Workload makeMpeg2Enc();
Workload makeMesa();
Workload makeMcf();
Workload makeEquake();
Workload makeAmmp();
Workload makeTwolf();
Workload makeGromacs();
Workload makeSjeng();

/**
 * The workload registry: the 11 built-in builders plus any `.gmt`
 * cells loaded from corpus directories. A loaded cell whose name
 * matches an existing entry replaces it in place (keeping the paper's
 * ordering — this is how the built-vs-loaded bit-identity check swaps
 * the matrix out from under the figure drivers); new names append in
 * filename order.
 */
class WorkloadRegistry
{
  public:
    /** Starts with the 11 built-ins in the paper's order. */
    WorkloadRegistry();

    /** Empty registry (e.g. for corpus-only tools). */
    static WorkloadRegistry empty();

    /**
     * Load every `*.gmt` file in @p dir (sorted by filename) via
     * loadWorkloadFile, replace-or-append as described above.
     * @return the number of cells loaded. Throws FatalError if the
     * directory is unreadable or any cell is malformed.
     */
    int loadDirectory(const std::string &dir);

    /** Replace-or-append one cell. */
    void add(Workload w);

    const std::vector<Workload> &workloads() const { return cells_; }
    std::vector<Workload> take() { return std::move(cells_); }

  private:
    std::vector<Workload> cells_;
};

/** All 11 built-in kernels in the paper's order. */
std::vector<Workload> allWorkloads();

} // namespace gmt

#endif // GMT_WORKLOADS_WORKLOAD_HPP
