#include "workloads/workload.hpp"

#include "ir/builder.hpp"
#include "support/rng.hpp"

namespace gmt
{

namespace
{

constexpr int64_t kMaxMod = 512;  // modules
constexpr int64_t kDim = 16;      // weight row width
constexpr int64_t kD = 0;                       // gains, class 1
constexpr int64_t kW = kD + kMaxMod;            // weights, class 2
constexpr int64_t kS = kW + kMaxMod * kDim;     // swap stats, class 3
constexpr int64_t kCells = kS + kMaxMod;

constexpr AliasClass kDCls = 1, kWCls = 2, kSCls = 3;

} // namespace

/**
 * Pointer-Intensive ks, FindMaxGpAndSwap: each Kernighan-Lin pass
 * first scans the gain array for the best unswapped module (a loop
 * whose *only* products are the final maxgain/best values), then
 * applies the swap by updating every module's gain with the chosen
 * row's weights, and separately logs the move in the swap statistics.
 * Under GREMIO the scan loop lands on one thread and the update work
 * on the other; MTCG then replicates the scan loop in the second
 * thread just to consume maxgain/best every iteration — the paper's
 * headline COCO case (73.7% of dynamic communication removed, the
 * Figure 4 pattern at benchmark scale).
 */
Workload
makeKs()
{
    FunctionBuilder b("FindMaxGpAndSwap");
    Reg nmod = b.param();
    Reg passes = b.param();

    BlockId entry = b.newBlock("entry");
    BlockId pass_head = b.newBlock("pass_head");
    BlockId scan_init = b.newBlock("scan_init");
    BlockId scan_head = b.newBlock("scan_head");
    BlockId scan_body = b.newBlock("scan_body");
    BlockId scan_better = b.newBlock("scan_better");
    BlockId scan_next = b.newBlock("scan_next");
    BlockId upd_head = b.newBlock("upd_head");
    BlockId upd_body = b.newBlock("upd_body");
    BlockId log_head = b.newBlock("log_head");
    BlockId log_body = b.newBlock("log_body");
    BlockId pass_next = b.newBlock("pass_next");
    BlockId done = b.newBlock("done");

    b.setBlock(entry);
    b.constI(0); // unused, but it numbers the registers after it
    Reg one = b.constI(1);
    Reg dimmask = b.constI(kDim - 1);
    Reg total = b.constI(0);
    Reg pass = b.constI(0);
    b.jmp(pass_head);

    b.setBlock(pass_head);
    Reg pmore = b.cmpLt(pass, passes);
    b.br(pmore, scan_init, done);

    // --- Scan loop: find the best candidate (live-outs only). -------
    b.setBlock(scan_init);
    Reg maxgain = b.func().newReg();
    b.constInto(maxgain, -(int64_t{1} << 40));
    Reg best = b.func().newReg();
    b.constInto(best, 0);
    Reg a = b.func().newReg();
    b.constInto(a, 0);
    b.jmp(scan_head);

    b.setBlock(scan_head);
    Reg amore = b.cmpLt(a, nmod);
    b.br(amore, scan_body, upd_head);

    b.setBlock(scan_body);
    Reg da = b.load(a, kD, kDCls);
    Reg improved = b.cmpGt(da, maxgain);
    b.br(improved, scan_better, scan_next);

    b.setBlock(scan_better);
    b.movInto(maxgain, da);
    b.movInto(best, a);
    b.jmp(scan_next);

    b.setBlock(scan_next);
    b.addInto(a, a, one);
    b.jmp(scan_head);

    // --- Update loop: refresh every gain with the chosen row. -------
    b.setBlock(upd_head);
    Reg m = b.func().newReg();
    b.constInto(m, 0);
    Reg rowbase = b.mul(best, b.constI(kDim));
    Reg adj = b.shr(maxgain, b.constI(6));
    b.jmp(upd_body);

    b.setBlock(upd_body);
    Reg wv = b.load(b.add(rowbase, b.andr(m, dimmask)), kW, kWCls);
    Reg dm = b.load(m, kD, kDCls);
    Reg dnew = b.sub(b.add(dm, wv), adj);
    b.store(m, kD, dnew, kDCls);
    b.addInto(m, m, one);
    Reg umore = b.cmpLt(m, nmod);
    b.br(umore, upd_body, log_head);

    // --- Log loop: independent swap statistics (overlappable). ------
    b.setBlock(log_head);
    Reg q = b.func().newReg();
    b.constInto(q, 0);
    b.jmp(log_body);

    b.setBlock(log_body);
    Reg sv = b.load(q, kS, kSCls);
    Reg contrib = b.add(b.mul(maxgain, b.cmpEq(q, best)), one);
    b.store(q, kS, b.add(sv, contrib), kSCls);
    b.addInto(q, q, one);
    Reg lmore = b.cmpLt(q, nmod);
    b.br(lmore, log_body, pass_next);

    b.setBlock(pass_next);
    b.addInto(total, total, maxgain);
    b.addInto(pass, pass, one);
    b.jmp(pass_head);

    b.setBlock(done);
    b.ret({total});

    Workload w;
    w.name = "ks";
    w.function_name = "FindMaxGpAndSwap";
    w.exec_percent = 100;
    w.func = b.finish();
    w.mem_cells = kCells;
    w.train_args = {60, 12};
    w.ref_args = {400, 40};
    w.fill = [](MemoryImage &mem, bool ref) {
        Rng rng(ref ? 4242 : 2121);
        for (int64_t i = 0; i < kMaxMod; ++i)
            mem.write(kD + i, rng.nextRange(-200, 200));
        for (int64_t i = 0; i < kMaxMod * kDim; ++i)
            mem.write(kW + i, rng.nextRange(-3, 3));
    };
    return w;
}

} // namespace gmt
