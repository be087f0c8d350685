#include "sparc/cpu.h"

#include <sstream>

#include "common/logging.h"

namespace crw {
namespace sparc {

namespace {

/** Names for trap-counter stats. */
const char *
trapName(TrapType tt)
{
    switch (tt) {
      case TrapType::Reset:                return "reset";
      case TrapType::InstructionAccess:    return "instruction_access";
      case TrapType::IllegalInstruction:   return "illegal_instruction";
      case TrapType::PrivilegedInstruction:
        return "privileged_instruction";
      case TrapType::WindowOverflow:       return "window_overflow";
      case TrapType::WindowUnderflow:      return "window_underflow";
      case TrapType::MemAddressNotAligned: return "mem_not_aligned";
      case TrapType::DataAccess:           return "data_access";
      default:                             return "trap_instruction";
    }
}

constexpr Word kNoTarget = 0xFFFFFFFF;
constexpr std::uint32_t kDivZeroTrap = 0x2A;

} // namespace

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::Running:   return "running";
      case StopReason::Halted:    return "halted";
      case StopReason::ErrorMode: return "error-mode";
      case StopReason::InsnLimit: return "insn-limit";
    }
    return "?";
}

Cpu::Cpu(Memory &memory, int num_windows, const CycleModel &cycles)
    : mem_(memory),
      regs_(num_windows),
      cost_(cycles),
      stats_("sparc.cpu")
{
}

void
Cpu::setPc(Word pc)
{
    pc_ = pc;
    npc_ = pc + 4;
}

void
Cpu::setPsr(Word psr)
{
    psr_ = psr;
    crw_assert(cwp() < regs_.numWindows());
}

void
Cpu::setCwp(int cwp_value)
{
    crw_assert(cwp_value >= 0 && cwp_value < regs_.numWindows());
    psr_ = (psr_ & ~kPsrCwpMask) | static_cast<Word>(cwp_value);
}

void
Cpu::setWim(Word wim)
{
    wim_ = wim & regs_.windowMask();
}

void
Cpu::setTbr(Word tbr)
{
    tbr_ = tbr & ~0xFFFu;
}

Word
Cpu::operand2(Word insn) const
{
    if (iBitOf(insn))
        return static_cast<Word>(simm13Of(insn));
    return regs_.get(cwp(), rs2Of(insn));
}

void
Cpu::setIcc(bool n, bool z, bool v, bool c)
{
    psr_ &= ~(kIccN | kIccZ | kIccV | kIccC);
    if (n)
        psr_ |= kIccN;
    if (z)
        psr_ |= kIccZ;
    if (v)
        psr_ |= kIccV;
    if (c)
        psr_ |= kIccC;
}

void
Cpu::addIcc(Word a, Word b, Word r, bool sub)
{
    const bool n = r >> 31;
    const bool z = r == 0;
    bool v;
    bool c;
    if (sub) {
        v = ((a ^ b) & (a ^ r)) >> 31;
        c = b > a; // borrow
    } else {
        v = (~(a ^ b) & (a ^ r)) >> 31;
        c = ((static_cast<std::uint64_t>(a) + b) >> 32) != 0;
    }
    setIcc(n, z, v, c);
}

bool
Cpu::evalCond(std::uint32_t cond) const
{
    const bool n = psr_ & kIccN;
    const bool z = psr_ & kIccZ;
    const bool v = psr_ & kIccV;
    const bool c = psr_ & kIccC;
    switch (static_cast<Cond>(cond)) {
      case Cond::N:   return false;
      case Cond::E:   return z;
      case Cond::Le:  return z || (n != v);
      case Cond::L:   return n != v;
      case Cond::Leu: return c || z;
      case Cond::Cs:  return c;
      case Cond::Neg: return n;
      case Cond::Vs:  return v;
      case Cond::A:   return true;
      case Cond::Ne:  return !z;
      case Cond::G:   return !(z || (n != v));
      case Cond::Ge:  return n == v;
      case Cond::Gu:  return !(c || z);
      case Cond::Cc:  return !c;
      case Cond::Pos: return !n;
      case Cond::Vc:  return !v;
    }
    return false;
}

void
Cpu::enterErrorMode(const std::string &why)
{
    stop_ = StopReason::ErrorMode;
    error_ = why;
    ++stats_.counter("error_mode");
}

void
Cpu::trap(TrapType tt, const char *what)
{
    trapped_ = true;
    if (!(psr_ & kPsrEtBit)) {
        std::ostringstream os;
        os << "trap " << trapName(tt) << " while ET=0 at pc=0x"
           << std::hex << pc_ << " (" << what << ")";
        enterErrorMode(os.str());
        return;
    }
    charge(cost_.trapEntry);
    Counter *&tc =
        trapCounters_[static_cast<std::uint32_t>(tt) & 0xFF];
    if (!tc)
        tc = &stats_.counter(std::string("trap.") + trapName(tt));
    ++*tc;

    // PS <- S, S <- 1, ET <- 0.
    if (psr_ & kPsrSBit)
        psr_ |= kPsrPsBit;
    else
        psr_ &= ~kPsrPsBit;
    psr_ |= kPsrSBit;
    psr_ &= ~kPsrEtBit;

    // Rotate into the trap window (no WIM check on trap entry).
    const int new_cwp = regs_.space().above(cwp());
    psr_ = (psr_ & ~kPsrCwpMask) | static_cast<Word>(new_cwp);

    // Save the trapped instruction's PC/nPC in the new window's
    // %l1/%l2 so the handler can retry or skip it.
    regs_.set(new_cwp, kRegL1, pc_);
    regs_.set(new_cwp, kRegL2, npc_);

    tbr_ = (tbr_ & ~0xFFFu) |
           ((static_cast<Word>(tt) & 0xFF) << 4);
    pc_ = tbr_;
    npc_ = pc_ + 4;
    annulNext_ = false;
}

void
Cpu::controlTransfer(Word target, bool annul_bit, bool taken,
                     bool always)
{
    if (taken) {
        transferTarget_ = target;
        charge(cost_.branchTakenExtra);
        // "ba,a" annuls its delay slot even though taken.
        annulRequest_ = annul_bit && always;
    } else {
        // Untaken with the annul bit set: squash the delay slot.
        annulRequest_ = annul_bit;
    }
}

void
Cpu::executeBranch(Word insn)
{
    switch (op2Of(insn)) {
      case static_cast<std::uint32_t>(Op2::Sethi): {
        charge(cost_.alu);
        regs_.set(cwp(), rdOf(insn), imm22Of(insn) << 10);
        return;
      }
      case static_cast<std::uint32_t>(Op2::Bicc): {
        charge(cost_.branch);
        const bool taken = evalCond(condOf(insn));
        const Word target =
            pc_ + (static_cast<Word>(disp22Of(insn)) << 2);
        controlTransfer(target, annulOf(insn), taken,
                        condOf(insn) ==
                            static_cast<std::uint32_t>(Cond::A));
        return;
      }
      default:
        trap(TrapType::IllegalInstruction, "bad op2");
        return;
    }
}

void
Cpu::executeMem(Word insn)
{
    const int rd = rdOf(insn);
    const Word addr = regs_.get(cwp(), rs1Of(insn)) + operand2(insn);
    const auto op3 = static_cast<Op3M>(op3Of(insn));

    std::size_t len = 4;
    switch (op3) {
      case Op3M::Ldub:
      case Op3M::Ldsb:
      case Op3M::Stb:
        len = 1;
        break;
      case Op3M::Lduh:
      case Op3M::Ldsh:
      case Op3M::Sth:
        len = 2;
        break;
      case Op3M::Ldd:
      case Op3M::Std:
        len = 8;
        break;
      default:
        break;
    }
    if (len > 1 && (addr & (std::min<std::size_t>(len, 8) - 1))) {
        trap(TrapType::MemAddressNotAligned, "memory operand");
        return;
    }
    if (!mem_.inBounds(addr, len)) {
        trap(TrapType::DataAccess, "address out of range");
        return;
    }
    if ((op3 == Op3M::Ldd || op3 == Op3M::Std) && (rd & 1)) {
        trap(TrapType::IllegalInstruction, "odd rd for ldd/std");
        return;
    }
    switch (op3) {
      case Op3M::Ld:
        charge(cost_.load);
        regs_.set(cwp(), rd, mem_.readWord(addr));
        break;
      case Op3M::Ldub:
        charge(cost_.load);
        regs_.set(cwp(), rd, mem_.readByte(addr));
        break;
      case Op3M::Ldsb:
        charge(cost_.load);
        regs_.set(cwp(), rd,
                  static_cast<Word>(static_cast<std::int32_t>(
                      static_cast<std::int8_t>(mem_.readByte(addr)))));
        break;
      case Op3M::Lduh:
        charge(cost_.load);
        regs_.set(cwp(), rd, mem_.readHalf(addr));
        break;
      case Op3M::Ldsh:
        charge(cost_.load);
        regs_.set(cwp(), rd,
                  static_cast<Word>(static_cast<std::int32_t>(
                      static_cast<std::int16_t>(mem_.readHalf(addr)))));
        break;
      case Op3M::Ldd:
        charge(cost_.loadDouble);
        regs_.set(cwp(), rd, mem_.readWord(addr));
        regs_.set(cwp(), rd | 1, mem_.readWord(addr + 4));
        break;
      case Op3M::St:
        charge(cost_.store);
        mem_.writeWord(addr, regs_.get(cwp(), rd));
        break;
      case Op3M::Stb:
        charge(cost_.store);
        mem_.writeByte(addr,
                       static_cast<std::uint8_t>(regs_.get(cwp(), rd)));
        break;
      case Op3M::Sth:
        charge(cost_.store);
        mem_.writeHalf(addr, static_cast<std::uint16_t>(
                                 regs_.get(cwp(), rd)));
        break;
      case Op3M::Std:
        charge(cost_.storeDouble);
        mem_.writeWord(addr, regs_.get(cwp(), rd));
        mem_.writeWord(addr + 4, regs_.get(cwp(), rd | 1));
        break;
      default:
        trap(TrapType::IllegalInstruction, "bad mem op3");
        break;
    }
}

void
Cpu::executeArith(Word insn)
{
    const int rd = rdOf(insn);
    const Word a = regs_.get(cwp(), rs1Of(insn));
    const Word b = operand2(insn);
    const auto op3 = static_cast<Op3A>(op3Of(insn));

    auto set_rd = [&](Word v) { regs_.set(cwp(), rd, v); };

    switch (op3) {
      case Op3A::Add:
        charge(cost_.alu);
        set_rd(a + b);
        return;
      case Op3A::AddCc: {
        charge(cost_.alu);
        const Word r = a + b;
        addIcc(a, b, r, false);
        set_rd(r);
        return;
      }
      case Op3A::Sub:
        charge(cost_.alu);
        set_rd(a - b);
        return;
      case Op3A::SubCc: {
        charge(cost_.alu);
        const Word r = a - b;
        addIcc(a, b, r, true);
        set_rd(r);
        return;
      }
      case Op3A::Addx: {
        charge(cost_.alu);
        set_rd(a + b + ((psr_ & kIccC) ? 1 : 0));
        return;
      }
      case Op3A::AddxCc: {
        charge(cost_.alu);
        const Word carry = (psr_ & kIccC) ? 1 : 0;
        const Word r = a + b + carry;
        const bool n = r >> 31;
        const bool z = r == 0;
        const bool v = (~(a ^ b) & (a ^ r)) >> 31;
        const bool c =
            ((static_cast<std::uint64_t>(a) + b + carry) >> 32) != 0;
        setIcc(n, z, v, c);
        set_rd(r);
        return;
      }
      case Op3A::Subx: {
        charge(cost_.alu);
        set_rd(a - b - ((psr_ & kIccC) ? 1 : 0));
        return;
      }
      case Op3A::SubxCc: {
        charge(cost_.alu);
        const Word borrow = (psr_ & kIccC) ? 1 : 0;
        const Word r = a - b - borrow;
        const bool n = r >> 31;
        const bool z = r == 0;
        const bool v = ((a ^ b) & (a ^ r)) >> 31;
        const bool c = static_cast<std::uint64_t>(b) + borrow > a;
        setIcc(n, z, v, c);
        set_rd(r);
        return;
      }
      case Op3A::And:
        charge(cost_.alu);
        set_rd(a & b);
        return;
      case Op3A::Or:
        charge(cost_.alu);
        set_rd(a | b);
        return;
      case Op3A::Xor:
        charge(cost_.alu);
        set_rd(a ^ b);
        return;
      case Op3A::Andn:
        charge(cost_.alu);
        set_rd(a & ~b);
        return;
      case Op3A::Orn:
        charge(cost_.alu);
        set_rd(a | ~b);
        return;
      case Op3A::Xnor:
        charge(cost_.alu);
        set_rd(a ^ ~b);
        return;
      case Op3A::AndCc:
      case Op3A::OrCc:
      case Op3A::XorCc:
      case Op3A::AndnCc:
      case Op3A::OrnCc:
      case Op3A::XnorCc: {
        charge(cost_.alu);
        Word r = 0;
        switch (op3) {
          case Op3A::AndCc:  r = a & b; break;
          case Op3A::OrCc:   r = a | b; break;
          case Op3A::XorCc:  r = a ^ b; break;
          case Op3A::AndnCc: r = a & ~b; break;
          case Op3A::OrnCc:  r = a | ~b; break;
          default:           r = a ^ ~b; break;
        }
        setIcc(r >> 31, r == 0, false, false);
        set_rd(r);
        return;
      }
      case Op3A::Sll:
        charge(cost_.alu);
        set_rd(a << (b & 31));
        return;
      case Op3A::Srl:
        charge(cost_.alu);
        set_rd(a >> (b & 31));
        return;
      case Op3A::Sra:
        charge(cost_.alu);
        set_rd(static_cast<Word>(static_cast<std::int32_t>(a) >>
                                 (b & 31)));
        return;
      case Op3A::Umul:
      case Op3A::UmulCc: {
        charge(cost_.mul);
        const std::uint64_t p = static_cast<std::uint64_t>(a) * b;
        y_ = static_cast<Word>(p >> 32);
        const Word r = static_cast<Word>(p);
        if (op3 == Op3A::UmulCc)
            setIcc(r >> 31, r == 0, false, false);
        set_rd(r);
        return;
      }
      case Op3A::Smul:
      case Op3A::SmulCc: {
        charge(cost_.mul);
        const std::int64_t p =
            static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
            static_cast<std::int32_t>(b);
        y_ = static_cast<Word>(static_cast<std::uint64_t>(p) >> 32);
        const Word r = static_cast<Word>(p);
        if (op3 == Op3A::SmulCc)
            setIcc(r >> 31, r == 0, false, false);
        set_rd(r);
        return;
      }
      case Op3A::Udiv: {
        charge(cost_.div);
        if (b == 0) {
            trap(static_cast<TrapType>(kDivZeroTrap), "udiv by zero");
            return;
        }
        const std::uint64_t dividend =
            (static_cast<std::uint64_t>(y_) << 32) | a;
        std::uint64_t q = dividend / b;
        if (q > 0xFFFFFFFFull)
            q = 0xFFFFFFFFull; // overflow saturates per V8
        set_rd(static_cast<Word>(q));
        return;
      }
      case Op3A::Sdiv: {
        charge(cost_.div);
        if (b == 0) {
            trap(static_cast<TrapType>(kDivZeroTrap), "sdiv by zero");
            return;
        }
        const std::int64_t dividend = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(y_) << 32) | a);
        const std::int64_t q =
            dividend / static_cast<std::int32_t>(b);
        set_rd(static_cast<Word>(q));
        return;
      }
      case Op3A::RdY:
        charge(cost_.readState);
        set_rd(y_);
        return;
      case Op3A::RdPsr:
      case Op3A::RdWim:
      case Op3A::RdTbr: {
        charge(cost_.readState);
        if (!supervisor()) {
            trap(TrapType::PrivilegedInstruction, "rd state reg");
            return;
        }
        if (op3 == Op3A::RdPsr)
            set_rd(psr_);
        else if (op3 == Op3A::RdWim)
            set_rd(wim_);
        else
            set_rd(tbr_);
        return;
      }
      case Op3A::WrY:
        charge(cost_.writeState);
        y_ = a ^ b;
        return;
      case Op3A::WrPsr: {
        charge(cost_.writeState);
        if (!supervisor()) {
            trap(TrapType::PrivilegedInstruction, "wr %psr");
            return;
        }
        const Word v = a ^ b;
        if ((v & kPsrCwpMask) >=
            static_cast<Word>(regs_.numWindows())) {
            trap(TrapType::IllegalInstruction, "CWP out of range");
            return;
        }
        // Immediate effect (no 3-slot write delay; see file header).
        psr_ = v & (kPsrCwpMask | kPsrEtBit | kPsrPsBit | kPsrSBit |
                    kIccN | kIccZ | kIccV | kIccC);
        return;
      }
      case Op3A::WrWim: {
        charge(cost_.writeState);
        if (!supervisor()) {
            trap(TrapType::PrivilegedInstruction, "wr %wim");
            return;
        }
        setWim(a ^ b);
        return;
      }
      case Op3A::WrTbr: {
        charge(cost_.writeState);
        if (!supervisor()) {
            trap(TrapType::PrivilegedInstruction, "wr %tbr");
            return;
        }
        setTbr(a ^ b);
        return;
      }
      case Op3A::Jmpl: {
        charge(cost_.callJmpl);
        const Word target = a + b;
        if (target & 3) {
            trap(TrapType::MemAddressNotAligned, "jmpl target");
            return;
        }
        set_rd(pc_);
        controlTransfer(target, false, true, false);
        return;
      }
      case Op3A::Rett: {
        charge(cost_.rett);
        if (!supervisor()) {
            trap(TrapType::PrivilegedInstruction, "rett");
            return;
        }
        if (psr_ & kPsrEtBit) {
            trap(TrapType::IllegalInstruction, "rett with ET=1");
            return;
        }
        const Word target = a + b;
        if (target & 3) {
            enterErrorMode("rett to misaligned target");
            trapped_ = true;
            return;
        }
        const int new_cwp = regs_.space().below(cwp());
        if ((wim_ >> new_cwp) & 1) {
            enterErrorMode("rett into invalid window (WIM)");
            trapped_ = true;
            return;
        }
        psr_ = (psr_ & ~kPsrCwpMask) | static_cast<Word>(new_cwp);
        // S <- PS, ET <- 1.
        if (psr_ & kPsrPsBit)
            psr_ |= kPsrSBit;
        else
            psr_ &= ~kPsrSBit;
        psr_ |= kPsrEtBit;
        controlTransfer(target, false, true, false);
        return;
      }
      case Op3A::Ticc: {
        charge(cost_.alu);
        if (!evalCond(condOf(insn)))
            return;
        const std::uint32_t number = (a + b) & 0x7F;
        // Simulator services (see header).
        if (number == 0) {
            stop_ = StopReason::Halted;
            exitCode_ = regs_.get(cwp(), kRegO0);
            ++stats_.counter("hypercall.halt");
            return;
        }
        if (number == 1) {
            console_.push_back(static_cast<char>(
                regs_.get(cwp(), kRegO0) & 0xFF));
            ++stats_.counter("hypercall.putchar");
            return;
        }
        if (number == 2) {
            regs_.set(cwp(), kRegO0, static_cast<Word>(cycles_));
            ++stats_.counter("hypercall.cycles");
            return;
        }
        trap(static_cast<TrapType>(
                 static_cast<std::uint32_t>(
                     TrapType::TrapInstructionBase) +
                 number),
             "ticc");
        return;
      }
      case Op3A::Save: {
        charge(cost_.saveRestore);
        const int new_cwp = regs_.space().above(cwp());
        if ((wim_ >> new_cwp) & 1) {
            trap(TrapType::WindowOverflow, "save into invalid window");
            return;
        }
        const Word r = a + b; // computed with the OLD window
        psr_ = (psr_ & ~kPsrCwpMask) | static_cast<Word>(new_cwp);
        regs_.set(new_cwp, rd, r); // written in the NEW window
        return;
      }
      case Op3A::Restore: {
        charge(cost_.saveRestore);
        const int new_cwp = regs_.space().below(cwp());
        if ((wim_ >> new_cwp) & 1) {
            trap(TrapType::WindowUnderflow,
                 "restore into invalid window");
            return;
        }
        const Word r = a + b;
        psr_ = (psr_ & ~kPsrCwpMask) | static_cast<Word>(new_cwp);
        regs_.set(new_cwp, rd, r);
        return;
      }
      default:
        trap(TrapType::IllegalInstruction, "bad arith op3");
        return;
    }
}

void
Cpu::execute(Word insn)
{
    switch (opOf(insn)) {
      case Op::Branch:
        executeBranch(insn);
        return;
      case Op::Call: {
        charge(cost_.callJmpl);
        regs_.set(cwp(), kRegO7, pc_);
        const Word target =
            pc_ + (static_cast<Word>(disp30Of(insn)) << 2);
        controlTransfer(target, false, true, false);
        return;
      }
      case Op::Arith:
        executeArith(insn);
        return;
      case Op::Mem:
        executeMem(insn);
        return;
    }
}

void
Cpu::step()
{
    if (stop_ != StopReason::Running)
        return;

    if (annulNext_) {
        annulNext_ = false;
        charge(cost_.annulled);
        pc_ = npc_;
        npc_ += 4;
        return;
    }

    if ((pc_ & 3) || !mem_.inBounds(pc_, 4)) {
        std::ostringstream os;
        os << "instruction fetch from 0x" << std::hex << pc_;
        if (psr_ & kPsrEtBit)
            trap(TrapType::InstructionAccess, os.str().c_str());
        else
            enterErrorMode(os.str());
        return;
    }

    const Word insn = mem_.readWord(pc_);
    trapped_ = false;
    transferTarget_ = kNoTarget;
    annulRequest_ = false;

    execute(insn);
    ++instructions_;

    if (stop_ != StopReason::Running)
        return;
    if (trapped_)
        return; // trap() established the new PC/nPC

    if (transferTarget_ != kNoTarget) {
        pc_ = npc_;
        npc_ = transferTarget_;
        annulNext_ = annulRequest_;
    } else {
        pc_ = npc_;
        npc_ += 4;
        annulNext_ = annulRequest_;
    }
}

StopReason
Cpu::run(std::uint64_t max_steps)
{
    for (std::uint64_t executed = 0; executed < max_steps; ++executed) {
        if (stop_ != StopReason::Running)
            return stop_;
        step();
    }
    return stop_ != StopReason::Running ? stop_ : StopReason::InsnLimit;
}

} // namespace sparc
} // namespace crw
