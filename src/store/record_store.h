/**
 * @file
 * RecordStore: a single-writer, many-reader keyed blob store over one
 * mmap-shared file — the substrate of the arena-backed result cache
 * (bench/result_cache.cc) and the shape the future sweep daemon's
 * readers attach to (DESIGN.md §13).
 *
 * Layout (one file, preallocated sparse):
 *
 *   off   0  magic[8]          "CRWSTORE"
 *   off   8  u32 storeVersion  kRecordStoreFormatVersion
 *   off  12  u32 appVersion    caller-defined (record payload format)
 *   off  16  u64 indexOffset
 *   off  24  u64 indexSlots    power of two
 *   off  32  u64 dataOffset
 *   off  40  u64 dataCapacity
 *   off  48  u64 headerChecksum  FNV-1a over [0, 56) with this zeroed
 *   --- mutable region (atomics; never checksummed) ---
 *   off  64  u64 seq           stats seqlock (odd while updating)
 *   off  72  u64 dataTail      writer bump pointer into the data region
 *   off  80  u64 entryCount
 *   off  88  u64 putFailures   puts refused because the data region filled
 *   off indexOffset  indexSlots × u64 slot
 *   off dataOffset   append-only records
 *
 * A slot is one 64-bit word — the whole publication protocol of the
 * (1,N) atomic-register exemplar collapsed to a single-word register:
 * 0 = empty, ~0 = tombstone, otherwise 1 + the record's offset into
 * the data region. The writer fully writes and checksums the record
 * bytes, then publishes the slot with one release store; a reader's
 * acquire load therefore either misses or sees a complete record.
 * Keys are verified inside the record itself, so an index collision
 * (or a stale slot after clear()) degrades to a miss, never to an
 * aliased result. Multi-field stats travel under a seqlock.
 *
 * Record encoding at its slot offset (8-byte aligned):
 *   u32 keyLen | key | u32 blobLen | blob | u64 payloadHash64(all prior)
 *
 * Writer election is flock-based (Mapping::openElected): exactly one
 * process opens Writer and sizes the file; the rest attach Reader to
 * the file as the writer sized it or, if it is not yet valid, degrade
 * to Invalid, where every find misses and every mutation is refused.
 */

#ifndef CRW_STORE_RECORD_STORE_H_
#define CRW_STORE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/arena.h"

namespace crw {
namespace store {

/** Bump when the header or record encoding changes shape. */
inline constexpr std::uint32_t kRecordStoreFormatVersion = 1;

class RecordStore
{
  public:
    enum class Mode
    {
        Invalid, ///< no usable mapping; every call degrades safely
        Writer,  ///< holds the flock; may put/erase/clear
        Reader,  ///< read-only attach of another process's store
    };

    enum class FindResult
    {
        Hit,
        Miss,
        Corrupt, ///< a slot pointed at a record that failed validation
    };

    struct Stats
    {
        std::uint64_t entries = 0;
        std::uint64_t dataBytes = 0;
        std::uint64_t dataCapacity = 0;
        std::uint64_t indexSlots = 0;
        std::uint64_t putFailures = 0;
        std::uint32_t storeVersion = 0;
        std::uint32_t appVersion = 0;
    };

    RecordStore() = default;
    RecordStore(RecordStore &&) = default;
    RecordStore &operator=(RecordStore &&) = default;

    /**
     * Open @p path, electing Writer via flock. A Writer finding no
     * valid store (fresh file, torn init, version mismatch) formats
     * one with @p index_slots slots (power of two) and @p data_capacity
     * bytes; a process that loses the election attaches Reader if the
     * store validates, else ends up Invalid. Always returns with a
     * well-defined mode(); false only when even Invalid could not be
     * set up (e.g. the path is unopenable) — same caller behavior.
     */
    bool open(const std::string &path, std::uint32_t app_version,
              std::size_t index_slots, std::size_t data_capacity,
              std::string *error = nullptr);

    /** Writer-mode store over anonymous memory (tests, fallbacks). */
    bool openAnonymous(std::uint32_t app_version,
                       std::size_t index_slots,
                       std::size_t data_capacity);

    /**
     * Probe @p key. On Hit fills @p blob; on Corrupt the caller
     * should count it and treat it as a miss. @p file_offset (may be
     * null) receives the record's absolute file offset on Hit —
     * corruption tests use it to aim their byte flips.
     */
    FindResult find(const std::string &key,
                    std::vector<std::uint8_t> &blob,
                    std::uint64_t *file_offset = nullptr) const;

    /**
     * Publish @p blob under @p key (Writer only). Re-putting a key
     * repoints its slot at a fresh record. False when not Writer or
     * when the data region cannot fit the record (putFailures++).
     */
    bool put(const std::string &key,
             const std::vector<std::uint8_t> &blob);

    /** Tombstone @p key's slot (Writer only). True if it was live. */
    bool erase(const std::string &key);

    /** Drop every record: zero the index, rewind the tail (Writer). */
    bool clear();

    /**
     * Visit every live, validating record. Corrupt or vanished
     * records are skipped — this is the GC's collection walk, which
     * must never crash on a half-rewritten store.
     */
    void forEachRecord(
        const std::function<void(const std::string &key,
                                 const std::uint8_t *blob,
                                 std::size_t blob_len)> &fn) const;

    /** Seqlock-consistent stats snapshot (any mode but Invalid). */
    Stats stats() const;

    Mode mode() const { return mode_; }
    bool writable() const { return mode_ == Mode::Writer; }
    bool valid() const { return mode_ != Mode::Invalid; }

    void close();

  private:
    bool initialize(std::uint32_t app_version, std::size_t index_slots,
                    std::size_t data_capacity);
    bool validateHeader(std::uint32_t app_version);

    std::uint8_t *base() { return static_cast<std::uint8_t *>(mapping_.data()); }
    const std::uint8_t *base() const
    {
        return static_cast<const std::uint8_t *>(mapping_.data());
    }

    Mapping mapping_;
    Mode mode_ = Mode::Invalid;
    std::uint64_t indexOffset_ = 0;
    std::uint64_t indexSlots_ = 0; ///< power of two
    std::uint64_t dataOffset_ = 0;
    std::uint64_t dataCapacity_ = 0;
    std::uint32_t appVersion_ = 0;
};

} // namespace store
} // namespace crw

#endif // CRW_STORE_RECORD_STORE_H_
