#ifndef GMT_WORKLOADS_SERIALIZE_HPP
#define GMT_WORKLOADS_SERIALIZE_HPP

/**
 * @file
 * The `.gmt` workload-cell format: a Workload as a loadable, dumpable
 * text artifact (ROADMAP item 4 / "workloads as data").
 *
 *   gmt-cell v1
 *   name adpcmdec
 *   function adpcm_decoder
 *   exec 100
 *   cells 4200
 *   train-args 40
 *   ref-args 200
 *   train-mem 16 88
 *   ...                     ; sparse nonzero cells, ascending address
 *   ref-mem 16 1021
 *   ...
 *   func @adpcm_decoder(r0) regs 31 {
 *   ...                     ; ir/printer.hpp form, parsed by ir/parser
 *   }
 *
 * The `fill` callback of a built-in workload is materialized at dump
 * time by running it against a fresh image and recording the nonzero
 * cells for both inputs; loading rebuilds an equivalent callback from
 * the recorded pairs. Since every builder's fill is deterministic,
 * dump -> load -> run is observationally identical to the built-in.
 *
 * workloadToText is canonical: field order, spacing, and the printer's
 * function text are all fixed, so text(load(text(w))) == text(w) and
 * the FNV-1a content digest of the text identifies the cell for
 * ArtifactCache keying (Workload::cacheKey).
 *
 * Each metadata line holds exactly its fields, separated by whitespace:
 * one word for `gmt-cell`, `name`, `function`, `exec` and `cells`, two
 * for a memory line, any number for an args line. Numbers are decimal
 * and must fit their field; `cells` appears once, at most
 * kMaxTextCells. Every parse error names its line.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workloads/workload.hpp"

namespace gmt
{

/**
 * Upper bound of a cell's `cells` count: a 128 MiB image. The corpus
 * uses at most 32768 cells and generated cells 192; the bound keeps
 * one line of text from sizing an image of any size.
 */
inline constexpr int64_t kMaxTextCells = int64_t{1} << 24;

/** The nonzero cells of one input image, (address, value) pairs in
 *  ascending address order. */
using MemPairs = std::vector<std::pair<int64_t, int64_t>>;

/** The nonzero cells of workloadMemory(@p w, @p ref). */
MemPairs materializeFill(const Workload &w, bool ref);

/** A Workload::fill that writes @p train or @p ref into the image:
 *  the inverse of materializeFill. */
std::function<void(MemoryImage &, bool ref)> fillFromPairs(MemPairs train,
                                                           MemPairs ref);

/** FNV-1a 64-bit hash of @p s. */
uint64_t fnv1a64(std::string_view s);

/** 16-hex-digit rendering of @p h. */
std::string hexDigest(uint64_t h);

/** Serialize @p w in the canonical `.gmt` cell form. */
std::string workloadToText(const Workload &w);

/**
 * Parse a `.gmt` cell. The returned workload has `digest` set to the
 * hex FNV-1a of its canonical re-serialization and `source` set to
 * @p source (a file path or a marker like "<fuzz>"). The contained
 * function is verified with verifyOrDie before returning; malformed
 * input throws FatalError.
 */
Workload workloadFromText(std::string_view text,
                          const std::string &source = "<text>");

/** Read @p path and workloadFromText it (source = path). */
Workload loadWorkloadFile(const std::string &path);

/** Write workloadToText(w) to @p path (throws FatalError on I/O). */
void saveWorkloadFile(const Workload &w, const std::string &path);

} // namespace gmt

#endif // GMT_WORKLOADS_SERIALIZE_HPP
