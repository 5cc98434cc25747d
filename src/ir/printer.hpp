#ifndef GMT_IR_PRINTER_HPP
#define GMT_IR_PRINTER_HPP

/**
 * @file
 * Textual IR printer. The output is both the human-readable dump used
 * by examples and test failure output AND the canonical serialized
 * form: src/ir/parser.hpp parses exactly this text back into a
 * Function, and parse(print(f)) is a bit-identical fixpoint (asserted
 * over the whole workload matrix by tests/test_ir_roundtrip.cpp).
 * Block and instruction ids are preserved by printing blocks in id
 * order and instructions in block order — the seed builders emit
 * instructions in exactly that order, so the arena numbering survives
 * the round trip and everything keyed on InstrId (PDG nodes,
 * partitions, comm plans) is identical for built and loaded cells.
 */

#include <iosfwd>
#include <string>

#include "ir/function.hpp"

namespace gmt
{

/** Append the text of @p f to @p out: the one writer of the form. */
void appendFunction(std::string &out, const Function &f);

/** Print @p f as text to @p os. */
void printFunction(const Function &f, std::ostream &os);

/** Convenience: printFunction into a string. */
std::string functionToString(const Function &f);

/** One-line rendering of a single instruction. */
std::string instrToString(const Function &f, InstrId i);

} // namespace gmt

#endif // GMT_IR_PRINTER_HPP
