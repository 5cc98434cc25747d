#include "coco/safety.hpp"

#include "support/error.hpp"

namespace gmt
{

SafetyAnalysis::SafetyAnalysis(const Function &f,
                               const ThreadPartition &partition,
                               int src_thread)
    : func_(f), partition_(partition), src_thread_(src_thread)
{
    const int nb = f.numBlocks();
    const int nr = f.numRegs();

    // Equation (1) over a whole block, summarized once as
    // SAFE_out = (SAFE_in - KILL) u GEN: the last instruction that
    // touches a register decides its bit. KILL holds every register
    // the block defines, GEN those whose last touch is a def or use of
    // the source thread (another thread's later def clears them).
    std::vector<BitVector> kill(nb, BitVector(nr));
    std::vector<BitVector> gen(nb, BitVector(nr));
    for (BlockId b = 0; b < nb; ++b) {
        for (InstrId i : f.block(b).instrs()) {
            Reg def = f.defOf(i);
            if (def != kNoReg) {
                kill[b].set(def);
                gen[b].reset(def);
            }
            if (partition_.threadOf(i) != src_thread_)
                continue;
            if (def != kNoReg)
                gen[b].set(def);
            for (Reg use : f.usesOf(i))
                gen[b].set(use);
        }
    }

    // Optimistic (top) initialization; the entry boundary is "all
    // safe" because live-ins are broadcast at spawn. Iterating the
    // intersection to the greatest fixpoint yields the precise
    // merge-over-paths solution of this distributive framework.
    // safe_out[b] is kept equal to block b's summary applied to
    // safe_in_[b]; the loop reuses its sets and allocates nothing.
    safe_in_.assign(nb, BitVector(nr));
    std::vector<BitVector> safe_out(nb, BitVector(nr));
    auto summarize = [&](BlockId b) {
        safe_out[b] = safe_in_[b];
        safe_out[b].subtract(kill[b]);
        safe_out[b].unionWith(gen[b]);
    };
    for (BlockId b = 0; b < nb; ++b) {
        safe_in_[b].setAll();
        summarize(b);
    }

    BitVector in(nr);
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 0; b < nb; ++b) {
            if (b == f.entry())
                continue; // stays all-safe
            const auto &preds = f.block(b).preds();
            // A block with no predecessors other than entry cannot
            // occur (verifier guarantees reachability).
            GMT_ASSERT(!preds.empty(), "block without predecessors");
            in = safe_out[preds[0]];
            for (size_t k = 1; k < preds.size(); ++k)
                in.intersectWith(safe_out[preds[k]]);
            if (!(in == safe_in_[b])) {
                std::swap(safe_in_[b], in);
                summarize(b);
                changed = true;
            }
        }
    }
}

void
SafetyAnalysis::transfer(BitVector &safe, InstrId i) const
{
    const Function &f = func_;
    Reg def = f.defOf(i);
    bool mine = (partition_.threadOf(i) == src_thread_);

    // SAFE - DEF(n): any thread's redefinition invalidates.
    if (def != kNoReg)
        safe.reset(def);
    // u DEF_Ts u USE_Ts: the source thread's own defs and uses
    // guarantee it holds the latest value.
    if (mine) {
        if (def != kNoReg)
            safe.set(def);
        for (Reg use : f.usesOf(i))
            safe.set(use);
    }
}

BitVector
SafetyAnalysis::safeAt(const ProgramPoint &p) const
{
    const BasicBlock &bb = func_.block(p.block);
    GMT_ASSERT(p.pos >= 0 && p.pos <= static_cast<int>(bb.size()));
    BitVector safe = safe_in_[p.block];
    for (int i = 0; i < p.pos; ++i)
        transfer(safe, bb.instrs()[i]);
    return safe;
}

bool
SafetyAnalysis::isSafeAt(Reg r, const ProgramPoint &p) const
{
    const BasicBlock &bb = func_.block(p.block);
    GMT_ASSERT(p.pos >= 0 && p.pos <= static_cast<int>(bb.size()));
    bool safe = safe_in_[p.block].test(r);
    for (int k = 0; k < p.pos; ++k)
        safe = safeAfter(r, safe, bb.instrs()[k]);
    return safe;
}

} // namespace gmt
