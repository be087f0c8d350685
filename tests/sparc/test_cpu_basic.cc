/**
 * @file
 * Basic interpreter tests: arithmetic, condition codes, memory,
 * branches with delay slots and annulment, call/ret, hypercalls,
 * self-modifying code.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "tests/sparc/sparc_test_util.h"

namespace crw {
namespace sparc {
namespace {

Word
runProgram(const std::string &body)
{
    // Each program computes a value into %o0 and halts.
    TestMachine m("start:\n" + body + "\n    ta 0\n    nop\n");
    return m.runToHalt();
}

TEST(CpuBasic, MovAndHalt)
{
    EXPECT_EQ(runProgram("    mov 42, %o0"), 42u);
}

TEST(CpuBasic, AddSub)
{
    EXPECT_EQ(runProgram("    mov 10, %l0\n"
                         "    add %l0, 32, %l1\n"
                         "    sub %l1, 2, %o0"),
              40u);
}

TEST(CpuBasic, SetLargeConstant)
{
    EXPECT_EQ(runProgram("    set 0xDEADBEEF, %o0"), 0xDEADBEEFu);
}

TEST(CpuBasic, LogicOps)
{
    EXPECT_EQ(runProgram("    set 0xF0F0, %l0\n"
                         "    set 0x0FF0, %l1\n"
                         "    and %l0, %l1, %l2\n"
                         "    or %l2, 0xF, %o0"),
              0xFFu); // (0xF0F0 & 0x0FF0) | 0xF
    EXPECT_EQ(runProgram("    set 0xFF, %l0\n"
                         "    xor %l0, 0x0F, %o0"),
              0xF0u);
    EXPECT_EQ(runProgram("    set 0xFF, %l0\n"
                         "    andn %l0, 0x0F, %o0"),
              0xF0u);
}

TEST(CpuBasic, Shifts)
{
    EXPECT_EQ(runProgram("    mov 1, %l0\n    sll %l0, 12, %o0"),
              4096u);
    EXPECT_EQ(runProgram("    set 0x80000000, %l0\n"
                         "    srl %l0, 31, %o0"),
              1u);
    EXPECT_EQ(runProgram("    set 0x80000000, %l0\n"
                         "    sra %l0, 31, %o0"),
              0xFFFFFFFFu);
}

TEST(CpuBasic, MulDiv)
{
    EXPECT_EQ(runProgram("    mov 7, %l0\n"
                         "    umul %l0, 6, %o0"),
              42u);
    EXPECT_EQ(runProgram("    mov 0, %l0\n"
                         "    wr %g0, 0, %y\n"
                         "    mov 42, %l0\n"
                         "    udiv %l0, 6, %o0"),
              7u);
}

TEST(CpuBasic, MemoryRoundTrip)
{
    EXPECT_EQ(runProgram("    set 0x2000, %l0\n"
                         "    set 0x12345678, %l1\n"
                         "    st %l1, [%l0]\n"
                         "    ld [%l0], %o0"),
              0x12345678u);
}

TEST(CpuBasic, ByteAndHalfAccess)
{
    EXPECT_EQ(runProgram("    set 0x2000, %l0\n"
                         "    mov 0xAB, %l1\n"
                         "    stb %l1, [%l0+1]\n"
                         "    ldub [%l0+1], %o0"),
              0xABu);
    // Big-endian layout: the byte at +0 is the word's MSB.
    EXPECT_EQ(runProgram("    set 0x2000, %l0\n"
                         "    set 0x11223344, %l1\n"
                         "    st %l1, [%l0]\n"
                         "    ldub [%l0], %o0"),
              0x11u);
    EXPECT_EQ(runProgram("    set 0x2000, %l0\n"
                         "    set 0x11223344, %l1\n"
                         "    st %l1, [%l0]\n"
                         "    lduh [%l0+2], %o0"),
              0x3344u);
}

TEST(CpuBasic, SignedLoads)
{
    EXPECT_EQ(runProgram("    set 0x2000, %l0\n"
                         "    mov 0xFF, %l1\n"
                         "    stb %l1, [%l0]\n"
                         "    ldsb [%l0], %o0"),
              0xFFFFFFFFu);
}

TEST(CpuBasic, DoubleWordAccess)
{
    EXPECT_EQ(runProgram("    set 0x2000, %l0\n"
                         "    set 0x11112222, %l2\n"
                         "    set 0x33334444, %l3\n"
                         "    std %l2, [%l0]\n"
                         "    ldd [%l0], %o0\n"
                         "    ld [%l0+4], %o0"),
              0x33334444u);
}

TEST(CpuBasic, BranchTakenWithDelaySlot)
{
    // The delay-slot instruction executes even for a taken branch.
    EXPECT_EQ(runProgram("    mov 0, %o0\n"
                         "    ba over\n"
                         "    add %o0, 1, %o0\n"
                         "    add %o0, 100, %o0\n"
                         "over:"),
              1u);
}

TEST(CpuBasic, AnnulledDelaySlotOnUntakenBranch)
{
    EXPECT_EQ(runProgram("    mov 0, %o0\n"
                         "    cmp %o0, 1\n"
                         "    be,a over\n"
                         "    add %o0, 50, %o0\n" // annulled
                         "    add %o0, 1, %o0\n"
                         "over:"),
              1u);
}

TEST(CpuBasic, BaAnnulSquashesDelaySlot)
{
    EXPECT_EQ(runProgram("    mov 0, %o0\n"
                         "    ba,a over\n"
                         "    add %o0, 50, %o0\n" // annulled
                         "over:"),
              0u);
}

TEST(CpuBasic, ConditionCodesSignedUnsigned)
{
    // -1 < 1 signed, but not unsigned.
    EXPECT_EQ(runProgram("    mov 0, %o0\n"
                         "    set 0xFFFFFFFF, %l0\n"
                         "    cmp %l0, 1\n"
                         "    bl signed_less\n"
                         "    nop\n"
                         "    ba done\n"
                         "    nop\n"
                         "signed_less:\n"
                         "    cmp %l0, 1\n"
                         "    bgu unsigned_greater\n"
                         "    nop\n"
                         "    ba done\n"
                         "    nop\n"
                         "unsigned_greater:\n"
                         "    mov 1, %o0\n"
                         "done:"),
              1u);
}

TEST(CpuBasic, LoopCountsDown)
{
    EXPECT_EQ(runProgram("    mov 10, %l0\n"
                         "    mov 0, %o0\n"
                         "loop:\n"
                         "    add %o0, %l0, %o0\n"
                         "    subcc %l0, 1, %l0\n"
                         "    bne loop\n"
                         "    nop"),
              55u);
}

TEST(CpuBasic, CallAndRetlLeafRoutine)
{
    EXPECT_EQ(runProgram("    call leaf\n"
                         "    mov 20, %o0\n" // delay slot sets the arg
                         "    ba fin\n"
                         "    nop\n"
                         "leaf:\n"
                         "    retl\n"
                         "    add %o0, 2, %o0\n"
                         "fin:"),
              22u);
}

TEST(CpuBasic, ConsoleHypercall)
{
    TestMachine m("start:\n"
                  "    mov 72, %o0\n" // 'H'
                  "    ta 1\n"
                  "    mov 105, %o0\n" // 'i'
                  "    ta 1\n"
                  "    mov 0, %o0\n"
                  "    ta 0\n");
    m.runToHalt();
    EXPECT_EQ(m.cpu.console(), "Hi");
}

TEST(CpuBasic, CycleHypercallMonotonic)
{
    TestMachine m("start:\n"
                  "    ta 2\n"
                  "    mov %o0, %l0\n"
                  "    nop\n"
                  "    nop\n"
                  "    ta 2\n"
                  "    sub %o0, %l0, %o0\n"
                  "    ta 0\n");
    const Word delta = m.runToHalt();
    EXPECT_GT(delta, 0u);
}

TEST(CpuBasic, CyclesAccumulatePerCostModel)
{
    TestMachine m("start:\n"
                  "    mov 1, %l0\n"  // 1 (alu)
                  "    ld [%g0], %l1\n" // 2 (load)
                  "    st %l1, [%g0]\n" // 3 (store)
                  "    ta 0\n");      // 1 (alu-class ticc)
    m.runToHalt();
    EXPECT_EQ(m.cpu.cycles(), 1u + 2u + 3u + 1u);
    EXPECT_EQ(m.cpu.instructions(), 4u);
}

TEST(CpuBasic, ErrorModeOnBadFetch)
{
    TestMachine m("start:\n"
                  "    nop\n",
                  8);
    m.cpu.setPc(0xFFFFF000); // far outside the 1 MiB memory
    m.cpu.setPsr(kPsrSBit); // ET=0: fetch failure -> error mode
    const StopReason r = m.cpu.run(10);
    EXPECT_EQ(r, StopReason::ErrorMode);
}

TEST(CpuBasic, DivisionByZeroTraps)
{
    TestMachine m("start:\n"
                  "    mov 1, %l0\n"
                  "    udiv %l0, 0, %o0\n"
                  "    ta 0\n");
    m.cpu.setPsr(kPsrSBit); // ET=0 -> error mode on the trap
    EXPECT_EQ(m.cpu.run(100), StopReason::ErrorMode);
}

TEST(CpuBasic, InsnLimitStops)
{
    TestMachine m("start:\n"
                  "loop: ba loop\n"
                  "    nop\n");
    EXPECT_EQ(m.cpu.run(1000), StopReason::InsnLimit);
}

TEST(CpuBasic, StoreIntoCodeAheadIsFetched)
{
    // The store patches a word a few instructions ahead of the PC, in
    // straight-line code that has not run yet: the fetch must see the
    // patched word (mov 22 instead of mov 11).
    const Word patched = encodeArithImm(Op3A::Or, 8, 0, 22); // %o0=22
    std::ostringstream src;
    src << "start:\n"
           "    set "
        << patched
        << ", %l0\n"
           "    set patchme, %l1\n"
           "    st %l0, [%l1]\n"
           "    add %g0, %g0, %g0\n"
           "patchme:\n"
           "    mov 11, %o0\n"
           "    ta 0\n";
    TestMachine m(src.str());
    EXPECT_EQ(m.runToHalt(), 22u);
}

TEST(CpuBasic, StoreIntoExecutedCodeIsRefetched)
{
    // The victim runs once (leaving 11 in %o0), is patched from other
    // code, and is jumped to again: the second pass must execute the
    // patched word.
    const Word patched = encodeArithImm(Op3A::Or, 8, 0, 22);
    std::ostringstream src;
    src << "start:\n"
           "    mov 0, %g2\n"
           "    set patchme, %l1\n"
           "    jmpl %l1, %g0\n"
           "    nop\n"
           "patchme:\n"
           "    mov 11, %o0\n"
           "    cmp %g2, 0\n"
           "    bne done\n"
           "    nop\n"
           "    set "
        << patched
        << ", %l0\n"
           "    st %l0, [%l1]\n"
           "    mov 1, %g2\n"
           "    jmpl %l1, %g0\n"
           "    nop\n"
           "done:\n"
           "    ta 0\n";
    TestMachine m(src.str());
    EXPECT_EQ(m.runToHalt(), 22u);
}

} // namespace
} // namespace sparc
} // namespace crw
