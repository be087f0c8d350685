/**
 * @file
 * The SPARC V8 integer-unit interpreter.
 *
 * Faithful where the paper depends on it: overlapping cyclic register
 * windows, CWP/WIM interaction of save/restore (traps are detected
 * before any state changes so the handler can replay the instruction),
 * trap entry that rotates into a fresh window with ET=0, rett, and
 * privileged state registers. Deliberate simplifications, documented
 * here: no ASIs/MMU (flat physical memory), no FPU/coprocessor, no
 * interrupts, wr-state-register effects are immediate rather than
 * 3-instruction delayed.
 *
 * Simulator services ("hypercalls") use reserved Ticc numbers *before*
 * trap vectoring:
 *   ta 0 — halt (exit code in %o0)
 *   ta 1 — console: write the byte in %o0
 *   ta 2 — %o0 = current cycle count (low 32 bits)
 * Everything else vectors through the TBR like real hardware.
 */

#ifndef CRW_SPARC_CPU_H_
#define CRW_SPARC_CPU_H_

#include <array>
#include <string>

#include "common/stats.h"
#include "sparc/cycles.h"
#include "sparc/isa.h"
#include "sparc/memory.h"
#include "sparc/regfile.h"

namespace crw {
namespace sparc {

/** Why run() returned. */
enum class StopReason {
    Running,      ///< not stopped (internal)
    Halted,       ///< ta 0 executed
    ErrorMode,    ///< trap while ET=0, or fetch failure (V8 error mode)
    InsnLimit,    ///< step budget exhausted
};

const char *stopReasonName(StopReason reason);

/** The processor. */
class Cpu
{
  public:
    Cpu(Memory &memory, int num_windows,
        const CycleModel &cycles = CycleModel{});

    // --- architectural state access ---
    Word pc() const { return pc_; }
    Word npc() const { return npc_; }
    void setPc(Word pc);

    Word psr() const { return psr_; }
    void setPsr(Word psr);
    int cwp() const { return static_cast<int>(psr_ & kPsrCwpMask); }
    void setCwp(int cwp);
    bool supervisor() const { return psr_ & kPsrSBit; }

    Word wim() const { return wim_; }
    void setWim(Word wim);
    Word tbr() const { return tbr_; }
    void setTbr(Word tbr);
    Word y() const { return y_; }

    Word reg(int r) const { return regs_.get(cwp(), r); }
    void setReg(int r, Word v) { regs_.set(cwp(), r, v); }

    RegFile &regFile() { return regs_; }
    const RegFile &regFile() const { return regs_; }
    Memory &memory() { return mem_; }

    // --- execution ---

    /** Execute one instruction (or consume one annulled slot). */
    void step();

    /**
     * Run until halt/error or until @p max_steps calls of step() —
     * executed instructions and annulled slots each use one step of
     * the budget.
     *
     * @return why execution stopped.
     */
    StopReason run(std::uint64_t max_steps = 100'000'000);

    bool halted() const { return stop_ == StopReason::Halted; }
    StopReason stopReason() const { return stop_; }
    Word exitCode() const { return exitCode_; }

    /** Simulated cycles consumed so far. */
    Cycles cycles() const { return cycles_; }

    /** Executed instruction count (annulled slots excluded). */
    std::uint64_t instructions() const { return instructions_; }

    /** Bytes written via `ta 1`. */
    const std::string &console() const { return console_; }

    /** Per-trap-type counters etc. */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Diagnostic message for ErrorMode stops. */
    const std::string &errorMessage() const { return error_; }

  private:
    // Execution helpers; each returns false if it raised a trap (the
    // instruction must then have had no architectural effect).
    void execute(Word insn);
    void executeArith(Word insn);
    void executeMem(Word insn);
    void executeBranch(Word insn);
    bool evalCond(std::uint32_t cond) const;

    /** Second operand: rs2 or sign-extended simm13. */
    Word operand2(Word insn) const;

    void setIcc(bool n, bool z, bool v, bool c);
    void addIcc(Word a, Word b, Word r, bool sub);

    /** Take a trap (precise; trapped instruction had no effect). */
    void trap(TrapType tt, const char *what);

    /** Control transfer: target becomes nPC after the delay slot. */
    void controlTransfer(Word target, bool annul_if_untaken_or_always,
                         bool taken, bool always);

    void charge(Cycles c) { cycles_ += c; }
    void enterErrorMode(const std::string &why);

    Memory &mem_;
    RegFile regs_;
    CycleModel cost_;

    Word pc_ = 0;
    Word npc_ = 4;
    Word psr_ = kPsrSBit; // supervisor, ET=0, CWP=0
    Word wim_ = 0;
    Word tbr_ = 0;
    Word y_ = 0;
    bool annulNext_ = false;

    // Per-instruction execution scratch state.
    bool trapped_ = false;
    Word transferTarget_ = 0xFFFFFFFF;
    bool annulRequest_ = false;

    StopReason stop_ = StopReason::Running;
    Word exitCode_ = 0;
    std::string error_;
    std::string console_;

    Cycles cycles_ = 0;
    std::uint64_t instructions_ = 0;
    StatGroup stats_;

    /**
     * Lazily-resolved "trap.<name>" counters, indexed by the low 8
     * bits of the trap type, so taking a trap never rebuilds the
     * counter-name string.
     */
    std::array<Counter *, 256> trapCounters_{};
};

} // namespace sparc
} // namespace crw

#endif // CRW_SPARC_CPU_H_
