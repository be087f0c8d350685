/**
 * @file
 * Flat simulated memory for the SPARC core.
 */

#ifndef CRW_SPARC_MEMORY_H_
#define CRW_SPARC_MEMORY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace crw {
namespace sparc {

/**
 * A flat, zero-based big-endian memory (SPARC is big-endian) holding
 * code and data alike. The accessors do no checking: the CPU tests
 * inBounds() and alignment first and turns a failure into a trap.
 * Nothing is cached on the side, so the CPU's next fetch sees every
 * write, self-modifying code included.
 */
class Memory
{
  public:
    explicit Memory(std::size_t size_bytes = 1 << 20);

    std::size_t size() const { return bytes_.size(); }

    bool inBounds(Addr addr, std::size_t len) const
    {
        return static_cast<std::size_t>(addr) + len <= bytes_.size();
    }

    // Unchecked fast accessors; the CPU validates first.
    std::uint8_t readByte(Addr addr) const { return bytes_[addr]; }
    void writeByte(Addr addr, std::uint8_t v) { bytes_[addr] = v; }

    std::uint16_t readHalf(Addr addr) const
    {
        return static_cast<std::uint16_t>((bytes_[addr] << 8) |
                                          bytes_[addr + 1]);
    }
    void writeHalf(Addr addr, std::uint16_t v)
    {
        bytes_[addr] = static_cast<std::uint8_t>(v >> 8);
        bytes_[addr + 1] = static_cast<std::uint8_t>(v);
    }
    std::uint32_t readWord(Addr addr) const
    {
        return (static_cast<std::uint32_t>(bytes_[addr]) << 24) |
               (static_cast<std::uint32_t>(bytes_[addr + 1]) << 16) |
               (static_cast<std::uint32_t>(bytes_[addr + 2]) << 8) |
               static_cast<std::uint32_t>(bytes_[addr + 3]);
    }
    void writeWord(Addr addr, std::uint32_t v)
    {
        bytes_[addr] = static_cast<std::uint8_t>(v >> 24);
        bytes_[addr + 1] = static_cast<std::uint8_t>(v >> 16);
        bytes_[addr + 2] = static_cast<std::uint8_t>(v >> 8);
        bytes_[addr + 3] = static_cast<std::uint8_t>(v);
    }

    /** Bulk load (program images). */
    void loadBlock(Addr addr, const void *data, std::size_t len);

    /** Convenience for tests: zero everything. */
    void clear();

  private:
    std::vector<std::uint8_t> bytes_;
};

} // namespace sparc
} // namespace crw

#endif // CRW_SPARC_MEMORY_H_
