/**
 * @file
 * The SPARC windowed register file.
 *
 * 8 globals plus NWINDOWS overlapping windows of 24 registers: each
 * window's *out* registers are physically the *in* registers of the
 * window "above" it (CWP - 1 mod N), so only 16 registers (ins +
 * locals) are stored per window. This overlap is the whole subject of
 * the paper: it is why the window above the stack-top must always be
 * dead, and why the in-to-out copy makes restore-in-place legal.
 */

#ifndef CRW_SPARC_REGFILE_H_
#define CRW_SPARC_REGFILE_H_

#include <vector>

#include "common/cyclic.h"
#include "common/types.h"

namespace crw {
namespace sparc {

/** The windowed integer register file. */
class RegFile
{
  public:
    explicit RegFile(int num_windows);

    int numWindows() const { return space_.size(); }
    const CyclicSpace &space() const { return space_; }

    /**
     * Mask with one bit per window of a @p num_windows file — the
     * value WIM is masked with everywhere (V8 WIM ignores writes to
     * bits above NWINDOWS-1). All WIM-mask computations in crw (CPU
     * wr %wim, kernel boot images, kernel WIM-recompute paths)
     * funnel through this helper.
     */
    static Word
    windowMask(int num_windows)
    {
        return num_windows >= 32 ? ~0u
                                 : ((1u << num_windows) - 1);
    }

    /** The mask for this file's window count. */
    Word windowMask() const { return windowMask(numWindows()); }

    /** Read architectural register @p reg (0..31) in window @p cwp. */
    Word get(int cwp, int reg) const;

    /** Write register; writes to %g0 are discarded. */
    void set(int cwp, int reg, Word value);

    /**
     * Raw access to a window's stored registers: slot 0..7 = locals,
     * 8..15 = ins. Used by tests and the kernel loader.
     */
    Word getRaw(int window, int slot) const;
    void setRaw(int window, int slot, Word value);

    /** Zero everything (power-on). */
    void reset();

  private:
    /** Map (cwp, reg) to an index in store_, or -1 for globals. */
    int slotIndex(int cwp, int reg) const;

    CyclicSpace space_;
    std::vector<Word> globals_;
    std::vector<Word> store_; ///< numWindows x 16 (locals, ins)
};

} // namespace sparc
} // namespace crw

#endif // CRW_SPARC_REGFILE_H_
