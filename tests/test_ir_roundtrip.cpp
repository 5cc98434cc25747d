// Round-trip tests for the textual IR and the .gmt cell format: the
// printer's output is the canonical serialized form, parse(print(f))
// must be a bit-identical fixpoint over the whole workload matrix, and
// the pipeline must not be able to tell a loaded cell from a built one.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"
#include "workloads/generate.hpp"
#include "workloads/serialize.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// Field-wise structural equality, including the id numbering: loaded
// cells must key PDG nodes / partitions / comm plans identically.
void
expectSameFunction(const Function &a, const Function &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.numRegs(), b.numRegs());
    EXPECT_EQ(a.params(), b.params());
    EXPECT_EQ(a.liveOuts(), b.liveOuts());
    EXPECT_EQ(a.entry(), b.entry());
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    ASSERT_EQ(a.numInstrs(), b.numInstrs());
    for (BlockId bl = 0; bl < a.numBlocks(); ++bl) {
        EXPECT_EQ(a.block(bl).label(), b.block(bl).label());
        EXPECT_EQ(a.block(bl).succs(), b.block(bl).succs());
        EXPECT_EQ(a.block(bl).preds(), b.block(bl).preds());
        ASSERT_EQ(a.block(bl).instrs(), b.block(bl).instrs());
    }
    for (InstrId i = 0; i < a.numInstrs(); ++i) {
        const Instr &x = a.instr(i);
        const Instr &y = b.instr(i);
        EXPECT_EQ(x.op, y.op) << "instr " << i;
        EXPECT_EQ(x.dst, y.dst) << "instr " << i;
        EXPECT_EQ(x.src1, y.src1) << "instr " << i;
        EXPECT_EQ(x.src2, y.src2) << "instr " << i;
        EXPECT_EQ(x.imm, y.imm) << "instr " << i;
        EXPECT_EQ(x.alias, y.alias) << "instr " << i;
        EXPECT_EQ(x.queue, y.queue) << "instr " << i;
        EXPECT_EQ(x.block, y.block) << "instr " << i;
        EXPECT_EQ(x.origin, y.origin) << "instr " << i;
    }
}

TEST(IrRoundTrip, ParsePrintFixpointAllWorkloads)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        std::string text = functionToString(w.func);
        Function parsed = parseFunction(text);
        verifyOrDie(parsed, {}, "parsed " + w.name);
        expectSameFunction(w.func, parsed);
        EXPECT_EQ(functionToString(parsed), text);
    }
}

TEST(IrRoundTrip, PrinterIsDeterministic)
{
    // Two independent builds of the matrix print byte-identically.
    std::vector<Workload> a = allWorkloads();
    std::vector<Workload> b = allWorkloads();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].name);
        EXPECT_EQ(functionToString(a[i].func),
                  functionToString(b[i].func));
        EXPECT_EQ(functionToString(a[i].func),
                  functionToString(a[i].func));
    }
}

TEST(IrRoundTrip, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseFunction(""), FatalError);
    EXPECT_THROW(parseFunction("func @f( {\n}\n"), FatalError);
    EXPECT_THROW(parseFunction("func @f() {\n"), FatalError); // no }
    EXPECT_THROW(parseFunction("func @f() {\n    r0 = const 1\n}\n"),
                 FatalError); // instr before any block label
    EXPECT_THROW(
        parseFunction(
            "func @f() {\nb0:\n    jmp nowhere\n}\n"),
        FatalError); // unresolved label
    EXPECT_THROW(
        parseFunction(
            "func @f() {\nb0:\n    r0 = frobnicate r1\n}\n"),
        FatalError); // unknown opcode
    EXPECT_THROW(
        parseFunction("func @f() regs 1 {\nb0:\n    r5 = const 1\n    "
                      "ret\n}\n"),
        FatalError); // regs declared below what the text uses
}

/** The message of the FatalError @p parse throws ("" if none). */
template <typename Fn>
std::string
fatalMessage(Fn &&parse)
{
    try {
        parse();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(IrRoundTrip, ParserErrorsNameTheirLine)
{
    auto msg = [](std::string_view text) {
        return fatalMessage([&] { parseFunction(text); });
    };
    EXPECT_EQ(msg(""), "IR parse error at line 1: expected 'func @...'");
    EXPECT_EQ(msg("func @f( {\n}\n"),
              "IR parse error at line 1: expected 'r' in 'func @f( {'");
    EXPECT_EQ(msg("func @f() {\n"),
              "IR parse error at line 2: missing closing '}' for @f");
    EXPECT_EQ(msg("func @f() {\n    r0 = const 1\n}\n"),
              "IR parse error at line 2: instruction before the first "
              "block label in '    r0 = const 1'");
    EXPECT_EQ(msg("func @f() {\nb0:\n    jmp nowhere\n}\n"),
              "IR parse error at line 3: unknown branch target 'nowhere' "
              "in @f");
    EXPECT_EQ(msg("func @f() {\nb0:\n    r0 = frobnicate r1\n}\n"),
              "IR parse error at line 3: unknown opcode 'frobnicate' in "
              "'    r0 = frobnicate r1'");
    EXPECT_EQ(msg("func @f() regs 1 {\nb0:\n    r5 = const 1\n    "
                  "ret\n}\n"),
              "IR parse error at line 1: @f declares regs 1 but the text "
              "references 6");
    EXPECT_EQ(msg("func @f() {\nb0:\n    jmp b0\nb0:\n    jmp b0\n}\n"),
              "IR parse error at line 4: duplicate block label 'b0' in @f");
    EXPECT_EQ(msg("\nfunc @f() {\n}\n"),
              "IR parse error at line 3: function @f has no blocks");
    EXPECT_EQ(msg("func @f() {\nb0:\n    ret\n}\nx\n"),
              "IR parse error at line 5: text after closing '}'");

    // Every number must fit its field.
    EXPECT_EQ(msg("func @f() regs 4294967309 {\n"),
              "IR parse error at line 1: register count out of range in "
              "'func @f() regs 4294967309 {'");
    EXPECT_EQ(msg("func @f() regs -1 {\n"),
              "IR parse error at line 1: register count out of range in "
              "'func @f() regs -1 {'");
    EXPECT_EQ(msg("func @f(r1048576) {\n"),
              "IR parse error at line 1: register number out of range in "
              "'func @f(r1048576) {'");
    EXPECT_EQ(msg("func @f() {\nb0:\n    r4294967309 = const 1\n}\n"),
              "IR parse error at line 3: register number out of range in "
              "'    r4294967309 = const 1'");
    EXPECT_EQ(msg("func @f() {\nb0:\n    r0 = const 9223372036854775808\n"
                  "}\n"),
              "IR parse error at line 3: integer out of range in "
              "'    r0 = const 9223372036854775808'");
    EXPECT_EQ(msg("func @f() {\nb0:\n    produce.sync [q2147483648]\n}\n"),
              "IR parse error at line 3: integer out of range in "
              "'    produce.sync [q2147483648]'");
    EXPECT_EQ(msg("func @f() {\nb0:\n    r1 = load [r0+0] !alias-2147483649"
                  "\n}\n"),
              "IR parse error at line 3: integer out of range in "
              "'    r1 = load [r0+0] !alias-2147483649'");
    EXPECT_EQ(msg("func @f() {\nb0:\n    ret  ; from i4294967296\n}\n"),
              "IR parse error at line 3: integer out of range in "
              "' from i4294967296'");
}

/**
 * The printed form of every instruction shape, pinned byte for byte:
 * each opcode, `_` operands, negative and extreme immediates, queue
 * operands, `; from iN` origins and the `; entry` marker.
 */
TEST(IrPrinter, EveryInstructionFormIsPinned)
{
    Function f("forms");
    f.addParam(0);
    f.addParam(1);
    BlockId b0 = f.addBlock("b0");
    BlockId b1 = f.addBlock("b1");
    BlockId b2 = f.addBlock("b2");
    f.append(b0, {.op = Opcode::Const, .dst = 2, .imm = INT64_MIN});
    f.append(b0, {.op = Opcode::Const, .dst = 3, .imm = INT64_MAX,
                  .origin = 7});
    f.append(b0, {.op = Opcode::Load, .dst = 4, .src1 = 0, .imm = -8,
                  .alias = 2});
    f.append(b0, {.op = Opcode::Store, .src1 = 0, .src2 = 4,
                  .imm = 2147483647, .alias = -1});
    for (Opcode op : {Opcode::Mov, Opcode::Neg, Opcode::Not, Opcode::Abs})
        f.append(b0, {.op = op, .dst = 5, .src1 = 4});
    for (int v = static_cast<int>(Opcode::Add);
         v <= static_cast<int>(Opcode::CmpGe); ++v) {
        Opcode op = static_cast<Opcode>(v);
        if (numSrcs(op) == 2)
            f.append(b0, {.op = op, .dst = 6, .src1 = 2, .src2 = 3});
    }
    f.append(b0, {.op = Opcode::Add, .dst = 7, .src2 = 3});
    f.append(b0, {.op = Opcode::Produce, .src1 = 7, .queue = 0});
    f.append(b0, {.op = Opcode::Consume, .dst = 1, .queue = 1});
    f.append(b0, {.op = Opcode::ProduceSync, .queue = 2});
    f.append(b0, {.op = Opcode::ConsumeSync, .queue = 3, .origin = 0});
    f.append(b0, {.op = Opcode::Br, .src1 = 7, .origin = 12});
    f.setSuccs(b0, {b2, b1});
    f.append(b1, {.op = Opcode::Jmp});
    f.setSuccs(b1, {b2});
    f.append(b2, {.op = Opcode::Ret});
    f.setLiveOuts({5, 6});
    f.setEntry(b1);

    const std::string want =
        "func @forms(r0, r1) regs 8 {\n"
        "b0:\n"
        "    r2 = const -9223372036854775808\n"
        "    r3 = const 9223372036854775807  ; from i7\n"
        "    r4 = load [r0+-8] !alias2\n"
        "    store [r0+2147483647] = r4 !alias-1\n"
        "    r5 = mov r4\n"
        "    r5 = neg r4\n"
        "    r5 = not r4\n"
        "    r5 = abs r4\n"
        "    r6 = add r2, r3\n"
        "    r6 = sub r2, r3\n"
        "    r6 = mul r2, r3\n"
        "    r6 = div r2, r3\n"
        "    r6 = rem r2, r3\n"
        "    r6 = and r2, r3\n"
        "    r6 = or r2, r3\n"
        "    r6 = xor r2, r3\n"
        "    r6 = shl r2, r3\n"
        "    r6 = shr r2, r3\n"
        "    r6 = min r2, r3\n"
        "    r6 = max r2, r3\n"
        "    r6 = cmpeq r2, r3\n"
        "    r6 = cmpne r2, r3\n"
        "    r6 = cmplt r2, r3\n"
        "    r6 = cmple r2, r3\n"
        "    r6 = cmpgt r2, r3\n"
        "    r6 = cmpge r2, r3\n"
        "    r7 = add _, r3\n"
        "    produce [q0] = r7\n"
        "    r1 = consume [q1]\n"
        "    produce.sync [q2]\n"
        "    consume.sync [q3]  ; from i0\n"
        "    br r7 b2 b1  ; from i12\n"
        "b1:  ; entry\n"
        "    jmp b2\n"
        "b2:\n"
        "    ret r5 r6\n"
        "}\n";
    EXPECT_EQ(functionToString(f), want);
    std::ostringstream os;
    printFunction(f, os);
    EXPECT_EQ(os.str(), want);
    EXPECT_EQ(instrToString(f, 0), "r2 = const -9223372036854775808");
    EXPECT_EQ(instrToString(f, f.numInstrs() - 1), "ret r5 r6");

    // The text reads back to the same function and prints the same.
    Function parsed = parseFunction(want);
    expectSameFunction(f, parsed);
    EXPECT_EQ(functionToString(parsed), want);

    f.setLiveOuts({});
    EXPECT_EQ(instrToString(f, f.numInstrs() - 1), "ret");
}

TEST(IrRoundTrip, ParserAcceptsNegativeOffsetsAndNoReg)
{
    Function f = parseFunction("func @t(r0) regs 3 {\n"
                               "b0:  ; entry\n"
                               "    r1 = load [r0+-3] !alias2\n"
                               "    store [r0+-3] = r1 !alias2\n"
                               "    ret r1\n"
                               "}\n");
    EXPECT_EQ(f.instr(0).imm, -3);
    EXPECT_EQ(f.instr(0).alias, 2);
    EXPECT_EQ(f.numRegs(), 3);
    EXPECT_EQ(functionToString(f),
              "func @t(r0) regs 3 {\n"
              "b0:  ; entry\n"
              "    r1 = load [r0+-3] !alias2\n"
              "    store [r0+-3] = r1 !alias2\n"
              "    ret r1\n"
              "}\n");
}

TEST(CellRoundTrip, TextFixpointAndDigestStability)
{
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        std::string text = workloadToText(w);
        Workload loaded = workloadFromText(text, "<test>");
        EXPECT_EQ(workloadToText(loaded), text);
        EXPECT_EQ(loaded.name, w.name);
        EXPECT_EQ(loaded.function_name, w.function_name);
        EXPECT_EQ(loaded.exec_percent, w.exec_percent);
        EXPECT_EQ(loaded.mem_cells, w.mem_cells);
        EXPECT_EQ(loaded.train_args, w.train_args);
        EXPECT_EQ(loaded.ref_args, w.ref_args);
        expectSameFunction(w.func, loaded.func);

        // The rebuilt fill writes the same image as the original.
        for (bool ref : {false, true})
            EXPECT_TRUE(workloadMemory(w, ref) ==
                        workloadMemory(loaded, ref))
                << "ref=" << ref;

        // Digest is a function of content alone.
        Workload again = workloadFromText(text, "<elsewhere>");
        EXPECT_EQ(again.digest, loaded.digest);
        EXPECT_FALSE(loaded.digest.empty());
        EXPECT_EQ(loaded.cacheKey(), w.name + "#" + loaded.digest);
        EXPECT_EQ(w.cacheKey(), w.name); // built-ins keep bare names
    }
}

TEST(CellRoundTrip, GeneratedCellDigestsArePinned)
{
    // generateWorkload under default GenOptions: a change to the
    // printed bytes of any generated cell changes its digest.
    static const char *const kDigests[100] = {
        "5152cf0238cd4ed8", "68a3d3a2cb4f5679", "07afe7e547e4f74f",
        "0e8d5b7dadb03ee1", "031cda2a827800e2", "e154fe3215a7fa5b",
        "ce13724bd861ba9f", "33b4cd7f08864feb", "ac944991619b0faf",
        "a5e4d4699326e67b", "931af0e7003f2278", "dfe2c383a59cfcca",
        "534f43c2f64058b3", "7e6199600e7d7109", "9dc03d60a86f5765",
        "46a4df2600f643cb", "307671e65bac1cae", "9e8c1da101dc56b1",
        "dea77829316c06c1", "857a269d99f15e8a", "d6ba4ae37068086b",
        "aecd0791414b9d25", "52d11251ca64a56b", "8b19025e47b5a1d3",
        "d558d9c68bdd7ba6", "d7537699b74983bd", "45f3012ff2a32a42",
        "4b36bb8df609dbe5", "8d0911ed11a9ce6d", "6ef183cac7ffa16f",
        "ee7bf6e2d740add5", "6f738b27791cf0a2", "2736f8a5358f65da",
        "232506232d7d73c9", "f352fb7b004b871c", "580eea57fa3f1e81",
        "d8e34cb3143deea8", "69a337c653734e7f", "745309f05bb381ca",
        "441e40da430e4a0e", "83af493f083ee75e", "a50b56d7a331c220",
        "c36f12ef03f51d80", "9a6f937420384244", "73352bda262d09b5",
        "8c27d7352f7ab43f", "55d495334e3d5a02", "922354eb0b30d3d3",
        "7e2fae6f606b14ad", "2b21a2003a758048", "4d03d7f80ceb0e27",
        "8e4f47102701e8e7", "e9244ab12e655fcb", "109a11dbc454fae7",
        "b2f88265e54a1cb9", "8fffedb86f48e0aa", "497478081b92a8b4",
        "a527da76b81f188f", "2ca3798cfca3374f", "5a04888dbd945b9d",
        "6c9422dda81c182e", "88d04b71266b2d96", "1e8f7b84746280b5",
        "c9092072fac9ef27", "50bd08f4dc7b1c53", "2b5afae2f4ee0d57",
        "c0882a36848c0fcb", "8047c7817b908f4a", "07c61072844bd0ae",
        "61edbe5d32c3c016", "16d51da85cafbf27", "7bef7e14bce068a0",
        "e9ee068c69db1e7b", "6a2468124d2ebb69", "1a07378558bc7fbd",
        "9459ae1ac666fed8", "9558e0d02feb351e", "3dac614e5f268190",
        "127270273c6fccd9", "9e0b98828be837d5", "b1c3b0dc598f0250",
        "073f3c03ae9783e5", "3e44625cd73ae638", "4fe58e08d66738b5",
        "f7a6854187c409bc", "7a2a20eb349dad93", "db969ac699df0600",
        "a18823bea66987e5", "95ece7ab9e91b786", "95d42701f18951e0",
        "0c3e515b447bea64", "c15f4f7038473a53", "0128e2f67b356697",
        "a90b90b1a2c98b6c", "aa71c49a74231cd1", "1276689a377f6845",
        "be35b135edb6e5e7", "56ff5c328f1ac731", "fd61a49ada37feaf",
        "a6a940d323f013bb",
    };
    for (uint64_t seed = 0; seed < 100; ++seed)
        EXPECT_EQ(generateWorkload(seed).digest, kDigests[seed])
            << "seed " << seed;
}

/** The golden 181.mcf cell with line @p line_no (1-based) replaced. */
std::string
mcfWithLine(int line_no, const std::string &replacement)
{
    std::ifstream in(std::string(GMT_GOLDEN_IR_DIR) + "/181.mcf.gmt",
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    size_t start = 0;
    for (int i = 1; i < line_no; ++i)
        start = text.find('\n', start) + 1;
    size_t end = text.find('\n', start);
    return text.replace(start, end - start, replacement);
}

TEST(CellRoundTrip, MetadataAndHeaderNumbersAreStrict)
{
    auto msg = [](const std::string &text) {
        return fatalMessage([&] { workloadFromText(text, "<t>"); });
    };
    // The unmodified cell loads; lines 2-8 are its metadata and line
    // 11248 its function header.
    ASSERT_EQ(msg(mcfWithLine(4, "exec 32")), "");
    EXPECT_EQ(msg(mcfWithLine(4, "exec abc")),
              "gmt-cell parse error at line 4: expected 'exec PERCENT'");
    EXPECT_EQ(msg(mcfWithLine(4, "exec 4294967296")),
              "gmt-cell parse error at line 4: expected 'exec PERCENT'");
    EXPECT_EQ(msg(mcfWithLine(2, "name two words")),
              "gmt-cell parse error at line 2: expected 'name NAME'");
    EXPECT_EQ(msg(mcfWithLine(3, "function")),
              "gmt-cell parse error at line 3: expected 'function NAME'");
    EXPECT_EQ(msg(mcfWithLine(1, "gmt-cell v1 v2")),
              "gmt-cell parse error at line 1: expected 'gmt-cell v1'");
    EXPECT_EQ(msg(mcfWithLine(8, "train-mem 3 2 3")),
              "gmt-cell parse error at line 8: expected 'train-mem ADDR "
              "VALUE'");
    EXPECT_EQ(msg(mcfWithLine(8, "train-mem 3 2x")),
              "gmt-cell parse error at line 8: expected 'train-mem ADDR "
              "VALUE'");
    EXPECT_EQ(msg(mcfWithLine(6, "train-args 500 9223372036854775808")),
              "gmt-cell parse error at line 6: expected integers");
    EXPECT_EQ(msg(mcfWithLine(5, "cells 9x")),
              "gmt-cell parse error at line 5: expected 'cells COUNT'");
    EXPECT_EQ(msg(mcfWithLine(5, "cells 16777217")),
              "gmt-cell parse error at line 5: cells 16777217 above the "
              "limit 16777216");
    EXPECT_EQ(msg(mcfWithLine(7, "cells 16384")),
              "gmt-cell parse error at line 7: duplicate 'cells' line");
    EXPECT_EQ(msg(mcfWithLine(11248, "func @refresh_potential(r0) regs "
                                     "4294967309 {")),
              "IR parse error at line 11248: register count out of range "
              "in 'func @refresh_potential(r0) regs 4294967309 {'");
}

TEST(CellRoundTrip, EveryLoadErrorNamesALine)
{
    auto msg = [](const std::string &text) {
        return fatalMessage([&] { workloadFromText(text, "<t>"); });
    };
    EXPECT_EQ(msg(mcfWithLine(11248, "func @other(r0) regs 13 {")),
              "gmt-cell parse error at line 11248: 'function "
              "refresh_potential' does not match '@other'");
    std::string no_func = mcfWithLine(1, "gmt-cell v1");
    no_func.resize(no_func.find("func @"));
    EXPECT_EQ(msg(no_func), "gmt-cell parse error at line 11248: no "
                            "'func @...' body in <t>");
    EXPECT_EQ(msg(mcfWithLine(11280, "")),
              "IR parse error at line 11281: missing closing '}' for "
              "@refresh_potential");
    EXPECT_EQ(msg(mcfWithLine(11280, "}\n\nx")),
              "gmt-cell parse error at line 11281: text after the "
              "function body");
    // Structural faults come from the verifier, which names the
    // function's line.
    std::string verify = msg(mcfWithLine(11279, "    jmp entry"));
    EXPECT_NE(verify.find("IR verification failed for @refresh_potential "
                          "(gmt-cell 181.mcf, function at line 11248)"),
              std::string::npos)
        << verify;
}

TEST(CellRoundTrip, GoldenCorpusMatchesBuilders)
{
    // The checked-in corpus under workloads/ir/ must be byte-identical
    // to what the builders serialize to today. Regenerate with:
    //   build/tools/gmt-dump --out-dir workloads/ir
    std::string dir = GMT_GOLDEN_IR_DIR;
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        std::string path = dir + "/" + w.name + ".gmt";
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << "missing golden " << path
                               << " (run gmt-dump --out-dir "
                                  "workloads/ir)";
        std::ostringstream buf;
        buf << in.rdbuf();
        EXPECT_EQ(buf.str(), workloadToText(w));
    }
}

TEST(CellRoundTrip, PipelineResultsIdenticalBuiltVsLoaded)
{
    // The acceptance criterion behind the figures: a cell loaded from
    // its serialized text must produce the same PipelineResult as the
    // compiled-in builder, over the full scheduler x COCO matrix.
    // Counts-only (simulate=false) for most cells to keep the test
    // fast; one fully simulated cell guards the timing path.
    for (const Workload &w : allWorkloads()) {
        SCOPED_TRACE(w.name);
        Workload loaded = workloadFromText(workloadToText(w), "<test>");
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions opts;
                opts.scheduler = sched;
                opts.use_coco = coco;
                opts.simulate =
                    (w.name == "adpcmdec" && sched == Scheduler::Dswp);
                PipelineResult built = runPipeline(w, opts);
                PipelineResult from_text = runPipeline(loaded, opts);
                EXPECT_TRUE(built == from_text)
                    << w.name << "/" << schedulerName(sched)
                    << (coco ? "+COCO" : "");
            }
        }
    }
}

TEST(Registry, ReplaceOrAppendAndDirectoryLoad)
{
    namespace fs = std::filesystem;
    WorkloadRegistry reg;
    size_t builtin_count = reg.workloads().size();
    ASSERT_EQ(builtin_count, 11u);

    // Same-name add replaces in place; new name appends.
    Workload clone =
        workloadFromText(workloadToText(reg.workloads()[2]), "<t>");
    ASSERT_EQ(clone.name, "ks");
    reg.add(clone);
    EXPECT_EQ(reg.workloads().size(), builtin_count);
    EXPECT_EQ(reg.workloads()[2].name, "ks");
    EXPECT_FALSE(reg.workloads()[2].digest.empty());

    Workload fresh = clone;
    fresh.name = "ks2";
    reg.add(fresh);
    ASSERT_EQ(reg.workloads().size(), builtin_count + 1);
    EXPECT_EQ(reg.workloads().back().name, "ks2");

    // Directory loading: dump two cells, load them back.
    fs::path dir =
        fs::temp_directory_path() / "gmt_registry_test_corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    Workload a = allWorkloads()[0];
    saveWorkloadFile(a, (dir / (a.name + ".gmt")).string());
    Workload b = workloadFromText(workloadToText(a), "<t>");
    b.name = "extra";
    saveWorkloadFile(b, (dir / "extra.gmt").string());

    WorkloadRegistry reg2;
    EXPECT_EQ(reg2.loadDirectory(dir.string()), 2);
    ASSERT_EQ(reg2.workloads().size(), builtin_count + 1);
    EXPECT_EQ(reg2.workloads()[0].name, a.name); // replaced in place
    EXPECT_FALSE(reg2.workloads()[0].digest.empty());
    EXPECT_EQ(reg2.workloads().back().name, "extra");
    fs::remove_all(dir);

    EXPECT_THROW(WorkloadRegistry().loadDirectory(
                     (dir / "does_not_exist").string()),
                 FatalError);
}

} // namespace
} // namespace gmt
