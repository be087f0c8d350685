#include "kernel/machine.h"

#include <map>
#include <mutex>

#include "common/logging.h"
#include "sparc/isa.h"

namespace crw {
namespace kernel {

using namespace sparc;

std::string
machineSource(KernelFlavor flavor, int num_windows,
              const std::string &user_source)
{
    return (flavor == KernelFlavor::Conventional
                ? conventionalKernelSource(num_windows)
                : sharingKernelSource(num_windows)) +
           switchRoutinesSource(num_windows) + "\n    .org " +
           std::to_string(kUserBase) + "\n" + user_source;
}

const sparcasm::Program &
assembleMemoized(const std::string &source)
{
    // Entries are never erased and std::map nodes never move, so a
    // returned reference stays valid after the lock is dropped.
    static std::mutex mu;
    static std::map<std::string, sparcasm::Program> memo;
    const std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(source);
    if (it == memo.end())
        it = memo.emplace(source, sparcasm::assemble(source, 0)).first;
    return it->second;
}

Machine::Machine(KernelFlavor flavor, int num_windows,
                 const std::string &user_source)
    : mem(1 << 20),
      cpu(mem, num_windows),
      program(assembleMemoized(
          machineSource(flavor, num_windows, user_source)))
{
    program.loadInto(mem);
    cpu.setTbr(0);
    cpu.setPsr(kPsrSBit | kPsrEtBit); // CWP = 0
    if (flavor == KernelFlavor::Conventional) {
        // One reserved window above the boot window.
        cpu.setWim(1u << (num_windows - 1));
    } else {
        // Resident mask in %g7, WIM = ~mask, everything else free.
        const Word mask = 1u;
        const Word all = RegFile::windowMask(num_windows);
        cpu.regFile().set(0, 7, mask);
        cpu.setWim(~mask);
        mem.writeWord(kScratchBase + 152, all & ~mask);
    }
    cpu.setReg(kRegSp, kStackTop);
    cpu.setPc(program.symbol("start"));
}

void
Machine::setWindowReg(int window, int reg, Word value)
{
    crw_assert(reg >= 8 && reg < 32); // globals live in the CPU view
    if (reg >= 16) {
        cpu.regFile().setRaw(window, reg - 16, value);
    } else {
        // outs of `window` are ins of the window above it.
        const int above = cpu.regFile().space().above(window);
        cpu.regFile().setRaw(above, 8 + (reg - 8), value);
    }
}

Word
Machine::windowReg(int window, int reg) const
{
    crw_assert(reg >= 8 && reg < 32);
    if (reg >= 16)
        return cpu.regFile().getRaw(window, reg - 16);
    const int above = cpu.regFile().space().above(window);
    return cpu.regFile().getRaw(above, 8 + (reg - 8));
}

Word
Machine::runToHalt(std::uint64_t max_steps)
{
    const StopReason r = cpu.run(max_steps);
    if (r != StopReason::Halted)
        crw_fatal << "kernel machine stopped: " << stopReasonName(r)
                  << " (" << cpu.errorMessage() << ") at pc=0x"
                  << std::hex << cpu.pc();
    return cpu.exitCode();
}

namespace {

// Staging constants for the Table 2 scenarios.
constexpr Addr kTcbA = 0x3800;
constexpr Addr kTcbB = 0x3900;
constexpr Addr kStackA = 0xE0000;  ///< from-thread frames
constexpr Addr kStackB = 0xD0000;  ///< to-thread top frame image
constexpr Addr kStackV = 0xC0000;  ///< victim-window frames
constexpr Word kMagicB = 0xB0B0;   ///< marker in B's saved %l0

/** Write a 16-word frame image (locals then ins) at @p addr. */
void
writeFrameImage(Memory &mem, Addr addr, Word l0, Word fp)
{
    for (int k = 0; k < 8; ++k)
        mem.writeWord(addr + 4 * static_cast<Addr>(k),
                      l0 + static_cast<Word>(k));
    for (int k = 0; k < 8; ++k)
        mem.writeWord(addr + 32 + 4 * static_cast<Addr>(k),
                      0x11110000u + static_cast<Word>(k));
    mem.writeWord(addr + 32 + 6 * 4, fp); // the frame's saved %i6
}

/**
 * Common switch-measurement scaffold: stage `from` running at window
 * 1 with its windows below it, `to` per flags, victims per indices,
 * then run `call <routine>` and return the routine's cycle cost.
 */
struct SwitchScenario
{
    const char *routine;   ///< ns_switch / snp_switch / sp_switch
    int fromResident = 1;  ///< windows of `from` (top at window 1)
    bool toSpilled = true; ///< refill B's top frame from memory
    int victim1 = -1;      ///< victim window index or -1
    int victim2 = -1;
    int nsFlushArg = -1;   ///< %o2 for ns_switch (-1: unused)
};

Cycles
runSwitchScenario(int num_windows, const SwitchScenario &sc)
{
    const std::string user = std::string("start:\n") +
                             "    call " + sc.routine + "\n" +
                             "    nop\n" +
                             "landing:\n" +
                             "    ta 0\n";
    // The switch routines themselves never trap (they run with
    // WIM = 0); flavor only matters for trap-handler tests.
    Machine m(KernelFlavor::Conventional, num_windows, user);
    Cpu &cpu = m.cpu;
    Memory &mem = m.mem;

    // --- thread A (from): top at window 1, deeper frames below ---
    const int top_a = 1;
    for (int k = 0; k < sc.fromResident; ++k) {
        const int w = (top_a + k) % num_windows;
        m.setWindowReg(w, kRegSp,
                       kStackA - 96u * static_cast<Word>(k));
        m.setWindowReg(w, kRegL0, 0xA0u + static_cast<Word>(k));
    }
    mem.writeWord(kTcbA + kTcbFlags, 0);

    // --- thread B (to) ---
    const int top_b = num_windows - 2;
    const Word psr_b = kPsrSBit |
                       static_cast<Word>(top_b); // ET=0 while jumping
    mem.writeWord(kTcbB + kTcbPsr, psr_b);
    mem.writeWord(kTcbB + kTcbResume, m.program.symbol("landing"));
    mem.writeWord(kTcbB + kTcbMask, 1u << top_b);
    mem.writeWord(kTcbB + kTcbFlags, sc.toSpilled ? 1 : 0);
    mem.writeWord(kTcbB + kTcbSp, kStackB);
    // B's saved outs: sane %sp and %o7.
    for (int k = 0; k < 8; ++k)
        mem.writeWord(kTcbB + kTcbOuts + 4 * static_cast<Addr>(k),
                      0x22220000u + static_cast<Word>(k));
    mem.writeWord(kTcbB + kTcbOuts + 6 * 4, kStackB);
    if (sc.toSpilled) {
        writeFrameImage(mem, kStackB, kMagicB, kStackB + 96);
    } else {
        // Resident: put B's top frame contents into the window file.
        m.setWindowReg(top_b, kRegL0, kMagicB);
        m.setWindowReg(top_b, kRegSp, kStackB);
    }

    // --- victims ---
    for (const int v : {sc.victim1, sc.victim2}) {
        if (v >= 0) {
            m.setWindowReg(v, kRegSp,
                           kStackV - 96u * static_cast<Word>(v));
            m.setWindowReg(v, kRegL0, 0xCC00u + static_cast<Word>(v));
        }
    }

    // --- running context: supervisor, traps off, CWP = A's top ---
    cpu.setPsr(kPsrSBit | static_cast<Word>(top_a));
    cpu.setWim(0);
    cpu.regFile().set(top_a, 1, kTcbA); // %g1
    cpu.regFile().set(top_a, 2, kTcbB); // %g2
    if (sc.nsFlushArg >= 0)
        cpu.setReg(kRegO0 + 2, static_cast<Word>(sc.nsFlushArg));
    cpu.setReg(kRegO0 + 3, static_cast<Word>(sc.victim1));
    cpu.setReg(kRegO0 + 4, static_cast<Word>(sc.victim2));
    cpu.setPc(m.program.symbol("start"));

    const Cycles before = cpu.cycles();
    m.runToHalt();
    // Verify the scheduled thread really came back with its state.
    if (m.cpu.reg(kRegL0) != kMagicB)
        crw_fatal << "switch scenario: B's window not restored";
    // Subtract the halting `ta 0` (1 cycle); the call+delay-slot entry
    // belongs to the switch path, as in the paper's measurement.
    return cpu.cycles() - before - 1;
}

} // namespace

Table2Harness::Table2Harness(int num_windows)
    : numWindows_(num_windows)
{
    crw_assert(num_windows >= 5);
}

Cycles
Table2Harness::measureNs(int flush_count, bool refill)
{
    crw_assert(flush_count >= 0 && flush_count <= numWindows_ - 1);
    SwitchScenario sc;
    sc.routine = "ns_switch";
    sc.fromResident = std::max(flush_count, 1);
    sc.nsFlushArg = flush_count;
    sc.toSpilled = refill;
    return runSwitchScenario(numWindows_, sc);
}

Cycles
Table2Harness::measureSnp(bool spill, bool refill)
{
    SwitchScenario sc;
    sc.routine = "snp_switch";
    sc.toSpilled = refill;
    sc.victim1 = spill ? 3 : -1;
    return runSwitchScenario(numWindows_, sc);
}

Cycles
Table2Harness::measureSp(int spills, bool refill)
{
    crw_assert(spills >= 0 && spills <= 2);
    SwitchScenario sc;
    sc.routine = "sp_switch";
    sc.toSpilled = refill;
    sc.victim1 = spills >= 1 ? 3 : -1;
    sc.victim2 = spills >= 2 ? 4 : -1;
    return runSwitchScenario(numWindows_, sc);
}

Cycles
Table2Harness::measureConventionalOverflow()
{
    Machine m(KernelFlavor::Conventional, numWindows_,
              "start:\n"
              "    save %sp, -96, %sp\n"
              "    ta 0\n");
    // CWP = 2; window 1 (above) is the reserved window.
    m.cpu.setPsr(kPsrSBit | kPsrEtBit | 2);
    m.cpu.setWim(1u << 1);
    m.cpu.setReg(kRegSp, kStackA);
    // The victim (window 3, the stack-bottom... here the window above
    // the reserved one, i.e. window 0) needs a valid %sp to spill to.
    m.setWindowReg(0, kRegSp, kStackV);
    m.cpu.setPc(m.program.symbol("start"));
    const Cycles before = m.cpu.cycles();
    m.runToHalt();
    // Subtract the save itself (1) and the halt (1).
    return m.cpu.cycles() - before - 2;
}

Cycles
Table2Harness::measureConventionalUnderflow()
{
    Machine m(KernelFlavor::Conventional, numWindows_,
              "start:\n"
              "    restore\n"
              "    ta 0\n");
    // CWP = 2 returning into window 3, which is marked invalid; its
    // frame image sits at [fp of window 2].
    m.cpu.setPsr(kPsrSBit | kPsrEtBit | 2);
    m.cpu.setWim(1u << 3);
    m.cpu.setReg(kRegSp, kStackA);
    m.cpu.setReg(kRegFp, kStackB); // = window 3's frame address
    writeFrameImage(m.mem, kStackB, kMagicB, kStackB + 96);
    m.cpu.setPc(m.program.symbol("start"));
    const Cycles before = m.cpu.cycles();
    m.runToHalt();
    if (m.cpu.reg(kRegL0) != kMagicB)
        crw_fatal << "underflow refill failed";
    return m.cpu.cycles() - before - 2;
}

Cycles
Table2Harness::measureSharingOverflow()
{
    Machine m(KernelFlavor::Sharing, numWindows_,
              "start:\n"
              "    save %sp, -96, %sp\n"
              "    ta 0\n");
    // Thread resident in {2,3}; CWP = 2; window 1 is its dead
    // boundary (reserved), so the save traps into it; window 0 holds
    // another thread's stack-bottom -> the handler must spill it.
    const Word mask = (1u << 2) | (1u << 3);
    m.cpu.setPsr(kPsrSBit | kPsrEtBit | 2);
    m.cpu.regFile().set(2, 7, mask); // %g7
    m.cpu.setWim(~mask);
    // Nothing is free: window 0 is occupied, forcing the spill path.
    m.mem.writeWord(kScratchBase + 152, 0);
    m.cpu.setReg(kRegSp, kStackA);
    m.setWindowReg(0, kRegSp, kStackV);
    m.setWindowReg(0, kRegL0, 0x3333);
    m.cpu.setPc(m.program.symbol("start"));
    const Cycles before = m.cpu.cycles();
    m.runToHalt();
    if (m.mem.readWord(kStackV) != 0x3333)
        crw_fatal << "sharing overflow did not spill the bottom";
    if (m.cpu.cwp() != 1)
        crw_fatal << "sharing overflow: save not replayed";
    return m.cpu.cycles() - before - 2;
}

Cycles
Table2Harness::measureSharingUnderflow()
{
    Machine m(KernelFlavor::Sharing, numWindows_,
              "start:\n"
              "    restore %i0, 1, %o0\n"
              "    ta 0\n");
    // Thread resident only in window 2 (the callee); every other
    // window is someone else's. The caller's frame image lives at the
    // callee's %fp.
    const Word mask = 1u << 2;
    m.cpu.setPsr(kPsrSBit | kPsrEtBit | 2);
    m.cpu.regFile().set(2, 7, mask);
    m.cpu.setWim(~mask);
    m.cpu.setReg(kRegSp, kStackA);
    m.cpu.setReg(kRegFp, kStackB);
    m.cpu.setReg(kRegI0, 41); // the callee's return value
    writeFrameImage(m.mem, kStackB, kMagicB, kStackB + 96);
    m.cpu.setPc(m.program.symbol("start"));
    const Cycles before = m.cpu.cycles();
    m.runToHalt();
    // Restore-in-place: CWP unchanged, caller frame present, return
    // value produced by the emulated restore's add (%i0 + 1).
    if (m.cpu.cwp() != 2)
        crw_fatal << "restore-in-place moved the CWP";
    if (m.cpu.reg(kRegL0) != kMagicB)
        crw_fatal << "caller frame not refilled in place";
    if (m.cpu.reg(kRegO0) != 42)
        crw_fatal << "restore emulation produced "
                  << m.cpu.reg(kRegO0);
    return m.cpu.cycles() - before - 1; // the restore was emulated
}

CostModel
Table2Harness::measuredCostModel()
{
    CostModel model = CostModel::paperTable2();

    const Cycles ns10 = measureNs(1, false);
    const Cycles ns11 = measureNs(1, true);
    const Cycles ns21 = measureNs(2, true);
    model.ns.perSave = ns21 - ns11;
    model.ns.perRestore = ns11 - ns10;
    model.ns.base = ns11 - model.ns.perSave - model.ns.perRestore;

    const Cycles snp00 = measureSnp(false, false);
    const Cycles snp01 = measureSnp(false, true);
    const Cycles snp10 = measureSnp(true, false);
    model.snp.base = snp00;
    model.snp.perSave = snp10 - snp00;
    model.snp.perRestore = snp01 - snp00;

    const Cycles sp00 = measureSp(0, false);
    const Cycles sp01 = measureSp(0, true);
    const Cycles sp11 = measureSp(1, true);
    model.sp.base = sp00;
    model.sp.perRestore = sp01 - sp00;
    model.sp.perSave = sp11 - sp01;

    model.transferRestore = model.snp.perRestore;
    model.transferSave = model.snp.perSave;
    const Cycles conv_ovf = measureConventionalOverflow();
    const Cycles conv_unf = measureConventionalUnderflow();
    const Cycles shr_unf = measureSharingUnderflow();
    model.overflowBase =
        conv_ovf > model.transferSave ? conv_ovf - model.transferSave
                                      : 0;
    model.underflowConventionalBase =
        conv_unf > model.transferRestore
            ? conv_unf - model.transferRestore
            : 0;
    model.underflowSharingBase =
        shr_unf > model.transferRestore
            ? shr_unf - model.transferRestore
            : 0;
    return model;
}

} // namespace kernel
} // namespace crw
