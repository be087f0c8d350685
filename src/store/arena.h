/**
 * @file
 * Mapped-file primitive shared by the on-disk stores (DESIGN.md §13):
 * Mapping, an RAII mmap of a file (read-only or shared-writable) or
 * of anonymous memory, plus non-blocking flock-based writer election.
 * The result store, the event ring and the flat-trace files all sit
 * on one. Their payload checksums are payloadHash64 (common/byteio.h),
 * the hash trace files carry too.
 */

#ifndef CRW_STORE_ARENA_H_
#define CRW_STORE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/byteio.h"

namespace crw {
namespace store {

/** RAII mmap of a file or of anonymous memory. Move-only. */
class Mapping
{
  public:
    Mapping() = default;
    ~Mapping();

    Mapping(Mapping &&other) noexcept;
    Mapping &operator=(Mapping &&other) noexcept;
    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    /**
     * Map an existing, non-empty @p path read-only (a private
     * mapping). False (and *error) on any syscall failure.
     */
    static bool openReadOnly(const std::string &path, Mapping &out,
                             std::string *error = nullptr);

    /**
     * The writer election for single-writer stores, in one step:
     * open @p path read-write (creating it if missing), take a
     * non-blocking flock(LOCK_EX), and only then size the file. The
     * winner grows it to @p size (ftruncate — sparse until written)
     * if it is shorter and maps it shared-writable; locked() is
     * true, and the lock is released when the mapping closes. A
     * loser (the lock is held by another open file description, or
     * the file cannot be opened for writing) never resizes the file:
     * it maps it read-only at its current size, as openReadOnly().
     */
    static bool openElected(const std::string &path, std::size_t size,
                            Mapping &out, std::string *error = nullptr);

    /** Anonymous zero-filled writable memory (no backing file). */
    static bool createAnonymous(std::size_t size, Mapping &out,
                                std::string *error = nullptr);

    bool valid() const { return addr_ != nullptr; }
    void *data() { return addr_; }
    const void *data() const { return addr_; }
    std::size_t size() const { return size_; }
    bool writable() const { return writable_; }
    bool locked() const { return locked_; }

    /** Unmap and close (idempotent). */
    void close();

  private:
    /** Map the open @p fd (taking ownership), first growing the file
     *  to @p min_size; closes @p fd on failure. */
    bool mapFd(int fd, const std::string &path, std::size_t min_size,
               bool writable, std::string *error);

    void *addr_ = nullptr;
    std::size_t size_ = 0;
    int fd_ = -1;
    bool writable_ = false;
    bool locked_ = false;
};

} // namespace store
} // namespace crw

#endif // CRW_STORE_ARENA_H_
