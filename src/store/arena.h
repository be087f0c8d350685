/**
 * @file
 * Arena/segment layer: mmap-backed storage shared across processes
 * (DESIGN.md §13). Three pieces, bottom up:
 *
 *  - Mapping: an RAII mmap of a file (read-only or shared-writable)
 *    or of anonymous memory, plus non-blocking flock-based writer
 *    election. Every cross-process store in the repo sits on one.
 *
 *  - ArenaBuilder / ArenaView: *immutable* segmented arena files.
 *    A builder bump-allocates named segments, stamps a versioned and
 *    checksummed superblock, and writes the whole image atomically
 *    (temp file + rename); a view attaches the mapping read-only and
 *    resolves segments in O(1) — only the fixed-size header is
 *    validated at attach, so a warm start never re-reads the payload.
 *    verifyPayload() re-hashes the payload on demand for consumers
 *    that feed the bytes into check-free hot loops (the flat-trace
 *    replay arenas do).
 *
 *  - hashArena64: the payload checksum. FNV-1a is the repo's identity
 *    hash but walks one byte per step; arena payloads are tens of MB,
 *    so this one mixes eight bytes per step (same spirit as wyhash's
 *    folding) and exists only as a *format-internal* integrity check —
 *    it never names anything outside the file that carries it.
 *
 * The superblock (all fields little-endian):
 *
 *   off  0  magic[8]          "CRWARENA"
 *   off  8  u32 arenaVersion  kArenaFormatVersion
 *   off 12  u32 appVersion    caller-defined (e.g. flat-trace format)
 *   off 16  u64 fileBytes     total file size (truncation detector)
 *   off 24  u64 payloadChecksum  hashArena64 over [payload, fileBytes)
 *   off 32  u32 segmentCount
 *   off 36  u32 keyLen        application identity-key length
 *   off 40  u64 headerChecksum   FNV-1a over [0, payloadOffset) with
 *                                this field zeroed
 *   off 48  segmentCount × { char name[8]; u64 offset; u64 bytes; }
 *   ...     key bytes, then zero padding to a kArenaAlign boundary
 *   payloadOffset: segments, each kArenaAlign (64-byte) aligned —
 *                  cache-line aligned so hot loops that stream a
 *                  mapped segment (the flat-trace replay walk, the
 *                  SoA follower pass) never split a line, and wide
 *                  aligned vector loads over segment data are legal
 *
 * A view rejects — cleanly, never by crashing — any file whose magic,
 * versions, identity key, header checksum, fileBytes, or segment
 * bounds disagree with the mapping (tests/store/test_arena.cc fuzzes
 * truncations and corruptions against this contract).
 */

#ifndef CRW_STORE_ARENA_H_
#define CRW_STORE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace crw {
namespace store {

/** Bump when the superblock layout changes shape (v2: segment
 *  alignment widened from 16 to one cache line; v1 files fail the
 *  version check cleanly and are rebuilt). */
inline constexpr std::uint32_t kArenaFormatVersion = 2;

/** Segment payloads are aligned to this within the file. One x86
 *  cache line: mmap bases are page-aligned, so a 64-byte file offset
 *  makes the in-memory segment pointer 64-byte aligned too — the
 *  contract the SIMD replay layer's aligned loads rely on. */
inline constexpr std::size_t kArenaAlign = 64;

/**
 * Word-at-a-time mixing hash for arena payload checksums. Format-
 * internal only (see file comment); deterministic across runs and
 * platforms of equal endianness.
 */
std::uint64_t hashArena64(const void *data, std::size_t n);

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

/** One named payload range of an attached arena. */
struct ArenaSegmentInfo
{
    std::string name;       ///< at most 8 significant characters
    std::uint64_t offset;   ///< absolute file offset (kArenaAlign-ed)
    std::uint64_t bytes;
};

/**
 * Assembles one immutable arena image. Segment bytes are copied at
 * addSegment() time; write() stamps the superblock and lands the file
 * atomically so a reader can never attach a torn image.
 */
class ArenaBuilder
{
  public:
    ArenaBuilder(std::uint32_t app_version, std::string app_key)
        : appVersion_(app_version),
          appKey_(std::move(app_key))
    {}

    /** Append one segment (@p name truncated to 8 chars). */
    void addSegment(const std::string &name, const void *data,
                    std::size_t bytes);

    /** Serialize the arena image into @p out (for tests). */
    void assemble(std::vector<std::uint8_t> &out) const;

    /** assemble() + temp-file + rename to @p path. */
    bool write(const std::string &path,
               std::string *error = nullptr) const;

  private:
    struct Pending
    {
        std::string name;
        std::vector<std::uint8_t> bytes;
    };

    std::uint32_t appVersion_;
    std::string appKey_;
    std::vector<Pending> segments_;
};

/**
 * Read-only attachment of an arena file. attach() validates the
 * fixed-size header only — O(1) in the payload size; segment data is
 * served as pointers into the mapping, which the view owns.
 */
class ArenaView
{
  public:
    ArenaView() = default;

    ArenaView(ArenaView &&) = default;
    ArenaView &operator=(ArenaView &&) = default;

    /**
     * Map @p path and validate the superblock against
     * @p expected_app_version and @p expected_key (see file comment
     * for the rejection list). False — with the mapping released —
     * on any mismatch.
     */
    static bool attach(const std::string &path,
                       std::uint32_t expected_app_version,
                       const std::string &expected_key, ArenaView &out,
                       std::string *error = nullptr);

    /** As attach(), but over an already-mapped image (for tests). */
    static bool attachMapping(Mapping mapping,
                              std::uint32_t expected_app_version,
                              const std::string &expected_key,
                              ArenaView &out,
                              std::string *error = nullptr);

    bool valid() const { return mapping_.valid(); }
    std::uint32_t appVersion() const { return appVersion_; }
    const std::string &appKey() const { return appKey_; }
    const std::vector<ArenaSegmentInfo> &segments() const
    {
        return segments_;
    }

    /**
     * Resolve one segment; null when absent. @p bytes receives the
     * segment's byte length.
     */
    const void *segment(const std::string &name,
                        std::uint64_t *bytes) const;

    /**
     * Re-hash the payload against the superblock checksum — O(payload)
     * by design, for consumers whose hot loops assume well-formed
     * bytes. attach() deliberately does not do this.
     */
    bool verifyPayload() const;

  private:
    Mapping mapping_;
    std::uint32_t appVersion_ = 0;
    std::string appKey_;
    std::vector<ArenaSegmentInfo> segments_;
    std::uint64_t payloadOffset_ = 0;
    std::uint64_t payloadChecksum_ = 0;
};

} // namespace store
} // namespace crw

#endif // CRW_STORE_ARENA_H_
