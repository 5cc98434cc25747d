#ifndef GMT_IR_PARSER_HPP
#define GMT_IR_PARSER_HPP

/**
 * @file
 * Textual IR parser: the inverse of ir/printer.hpp.
 *
 * Parses the printer's canonical form back into a Function:
 *
 *   func @name(r0, r1) regs 12 {
 *   entry:  ; entry
 *       r2 = const 5
 *       r3 = load [r0+4] !alias2
 *       store [r0+8] = r3 !alias2
 *       r4 = add r2, r3
 *       br r4 then else
 *   then:
 *       jmp join
 *   ...
 *       ret r4
 *   }
 *
 * Blocks are created in textual order (so BlockIds round-trip) and
 * instructions are appended in textual order (so InstrIds round-trip
 * for functions whose arena order matches block order — true for every
 * builder in src/workloads and for the generator). `; from iN`
 * suffixes restore Instr::origin; the `; entry` marker restores a
 * non-first entry block; `regs N` restores the exact register-arena
 * size even when registers are unused by the text.
 *
 * parse errors throw FatalError with a line number; the parser checks
 * syntax and label resolution only — callers run verifyFunction /
 * verifyOrDie for the structural invariants, exactly like every other
 * IR producer in the pipeline. Every number must fit its field: an
 * immediate is an int64, an alias class, queue id or origin an int32,
 * and a register number or the `regs` count at most kMaxTextRegs.
 */

#include <string>
#include <string_view>

#include "ir/function.hpp"
#include "ir/text.hpp"

namespace gmt
{

/**
 * Upper bound of a `regs` count, and one above the largest register
 * number the text may name. The corpus uses at most 59 registers and
 * generated cells a few hundred; the bound keeps one line of text from
 * sizing a multi-gigabyte register file.
 */
inline constexpr int kMaxTextRegs = 1 << 20;

/**
 * Parse one function in the printer's textual form. @p text must
 * contain exactly one `func @... { ... }` (leading/trailing blank
 * lines are ignored). Throws FatalError on malformed input.
 */
Function parseFunction(std::string_view text);

/**
 * Parse the function whose header is the current line of @p lines or,
 * when that line is blank, the next line that is not. Leaves @p lines
 * on the closing `}`. The workload-cell loader reads its metadata and
 * the function with this one reader.
 */
Function parseFunction(LineReader &lines);

} // namespace gmt

#endif // GMT_IR_PARSER_HPP
