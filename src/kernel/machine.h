/**
 * @file
 * A booted SPARC machine with the window-management kernel loaded,
 * plus the Table 2 measurement harness.
 */

#ifndef CRW_KERNEL_MACHINE_H_
#define CRW_KERNEL_MACHINE_H_

#include <string>

#include "asm/assembler.h"
#include "kernel/kernel.h"
#include "sparc/cpu.h"
#include "win/cost_model.h"

namespace crw {
namespace kernel {

/** Which trap handlers are installed. */
enum class KernelFlavor {
    Conventional, ///< classic single-reserved-window handlers (NS)
    Sharing,      ///< the paper's mask-based / restore-in-place pair
};

/**
 * The full text a Machine assembles: the flavor's trap handlers and
 * the switch routines at kKernelBase, then @p user_source at
 * kUserBase.
 */
std::string machineSource(KernelFlavor flavor, int num_windows,
                          const std::string &user_source);

/**
 * sparcasm::assemble(@p source, 0), run once per distinct source text
 * per process (mutex-guarded; entries live until exit). The Table 2
 * harness builds ~30 machines from ~7 texts, and assembling the kernel
 * is most of each build.
 */
const sparcasm::Program &assembleMemoized(const std::string &source);

/**
 * A machine with vectors+handlers+switch routines at kKernelBase and
 * @p user_source at kUserBase. Boots in supervisor mode at the user
 * symbol "start", CWP 0, %sp at kStackTop, traps enabled, with the
 * WIM/resident-mask matching the flavor. Its program is a copy of
 * the memoized assembly of machineSource(); memory and CPU are its
 * own.
 */
class Machine
{
  public:
    Machine(KernelFlavor flavor, int num_windows,
            const std::string &user_source);

    sparc::Memory mem;
    sparc::Cpu cpu;
    sparcasm::Program program;

    /** Set a register of a specific window via raw access. */
    void setWindowReg(int window, int reg, Word value);
    Word windowReg(int window, int reg) const;

    /** Run until halt; fatal-fails the message on error stops. */
    Word runToHalt(std::uint64_t max_steps = 10'000'000);
};

/**
 * Measures the cycle cost of every Table 2 context-switch case and of
 * the window trap handlers by staging the exact machine state each
 * case requires and running the real kernel routines.
 *
 * Uses 7 windows, like the Fujitsu S-20 the paper measured on.
 */
class Table2Harness
{
  public:
    explicit Table2Harness(int num_windows = 7);

    /** NS switch flushing @p flush_count windows; @p refill reloads
     *  the scheduled thread's top frame (the paper's restore=1). */
    Cycles measureNs(int flush_count, bool refill = true);

    /** SNP switch; at most one victim spill. */
    Cycles measureSnp(bool spill, bool refill);

    /** SP switch; zero to two victim spills. */
    Cycles measureSp(int spills, bool refill);

    /** Conventional overflow trap (trap entry + spill + rett). */
    Cycles measureConventionalOverflow();

    /** Conventional underflow trap (refill one window below). */
    Cycles measureConventionalUnderflow();

    /** Sharing overflow trap (mask scan + bottom spill). */
    Cycles measureSharingOverflow();

    /** Sharing underflow: restore-in-place + restore emulation. */
    Cycles measureSharingUnderflow();

    /**
     * A CostModel whose switch lines and trap costs come from these
     * measurements — the "measured" preset the event-level benches
     * can use instead of the paper's Table 2 numbers.
     */
    CostModel measuredCostModel();

    int numWindows() const { return numWindows_; }

  private:
    int numWindows_;
};

} // namespace kernel
} // namespace crw

#endif // CRW_KERNEL_MACHINE_H_
