/**
 * @file
 * Quickstart: the whole library in one file.
 *
 * Builds a small function with the IR builder, runs it single-
 * threaded, partitions it with DSWP, generates multi-threaded code
 * with MTCG, optimizes the communication with COCO, executes the
 * result on the functional MT interpreter, and times it on the
 * dual-core simulator — then replays the same cell through the
 * staged pass manager, which runs those stages as named passes with
 * per-pass timing (driver/pass_manager.hpp).
 *
 *   $ ./quickstart
 */

#include <iostream>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/edge_profile.hpp"
#include "coco/coco.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "partition/dswp.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"
#include "sim/cmp_simulator.hpp"

using namespace gmt;

/** sum_{i<n} (i*i + i) with the square computed through memory. */
static Function
buildExample()
{
    FunctionBuilder b("quickstart");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId done = b.newBlock("done");

    b.setBlock(head);
    Reg i = b.constI(0);
    Reg sum = b.constI(0);
    b.jmp(body);

    b.setBlock(body);
    Reg sq = b.mul(i, i);
    b.store(i, 0, sq, 1);          // scratch[i] = i*i
    Reg back = b.load(i, 0, 1);    // and read it back
    b.addInto(sum, sum, b.add(back, i));
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg more = b.cmpLt(i, n);
    b.br(more, body, done);

    b.setBlock(done);
    b.ret({sum});
    return b.finish();
}

int
main()
{
    // 1. Build and verify IR.
    Function f = buildExample();
    splitCriticalEdges(f);
    verifyOrDie(f);
    std::cout << "=== IR ===\n" << functionToString(f);

    // 2. Reference run + profile (the paper profiles on a train
    //    input; here we reuse the same input for brevity).
    MemoryImage mem;
    mem.alloc(64);
    auto st = interpret(f, {50}, mem);
    std::cout << "\nsingle-threaded result: " << st.live_outs[0]
              << " (" << st.dyn_instrs << " dynamic instructions)\n";
    auto profile = EdgeProfile::fromRun(f, st.profile);

    // 3. PDG -> DSWP partition.
    Pdg pdg = buildPdg(f);
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);
    ThreadPartition partition =
        dswpPartition(pdg, profile, {.num_threads = 2});

    // 4. COCO placement + MTCG code generation.
    auto coco = cocoOptimize(f, pdg, partition, cd, profile);
    MtProgram prog = runMtcg(f, pdg, partition, coco.plan, cd);
    for (const auto &thread : prog.threads)
        std::cout << "\n=== " << thread.name() << " ===\n"
                  << functionToString(thread);

    // 5. Execute the multi-threaded code.
    MemoryImage mt_mem;
    mt_mem.alloc(64);
    auto mt = interpretMt(prog, {50}, mt_mem);
    std::cout << "\nmulti-threaded result:  " << mt.live_outs[0]
              << " (communication: " << mt.totalCommunication()
              << " dynamic instructions)\n";

    // 6. Time both on the simulated dual-core CMP.
    MemoryImage sim_mem1, sim_mem2;
    sim_mem1.alloc(64);
    sim_mem2.alloc(64);
    auto cfg = MachineConfig::paperDefault();
    auto st_timed = simulateSingleThreaded(f, {50}, sim_mem1, cfg);
    CmpSimulator sim(cfg);
    auto mt_timed = sim.run(prog, {50}, sim_mem2);
    std::cout << "cycles: " << st_timed.cycles << " (1 thread) -> "
              << mt_timed.cycles << " (2 threads), speedup "
              << static_cast<double>(st_timed.cycles) /
                     static_cast<double>(mt_timed.cycles)
              << "x\n";

    // 7. The same cell through the staged pass manager — what
    //    runPipeline() and the bench harness do: wrap the function
    //    as a Workload, run the named passes, read the result and
    //    the per-pass timings.
    Workload w;
    w.name = "quickstart";
    w.function_name = f.name();
    w.func = buildExample();
    w.mem_cells = 64;
    w.train_args = {50};
    w.ref_args = {50};

    PipelineOptions opts;
    opts.scheduler = Scheduler::Dswp;
    opts.use_coco = true;
    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);

    std::cout << "\n=== pass pipeline (same cell, named passes) ===\n";
    for (const PassStats &ps : ctx.pass_stats)
        std::cout << "  " << ps.pass << ": "
                  << static_cast<int>(ps.wall_ms * 1000) << " us\n";
    std::cout << "pipeline speedup: " << ctx.result.speedup()
              << "x (matches step 6)\n";
    return 0;
}
