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
