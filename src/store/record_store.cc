#include "store/record_store.h"

#include <cstring>

#include "common/byteio.h"

namespace crw {
namespace store {

namespace {

constexpr char kStoreMagic[8] = {'C', 'R', 'W', 'S', 'T', 'O', 'R', 'E'};
constexpr std::size_t kHeaderChecksumOff = 48;
constexpr std::size_t kHeaderChecksumSpan = 56;
constexpr std::size_t kSeqOff = 64;
constexpr std::size_t kDataTailOff = 72;
constexpr std::size_t kEntryCountOff = 80;
constexpr std::size_t kPutFailuresOff = 88;
constexpr std::size_t kHeaderBytes = 4096;
constexpr std::uint64_t kTombstone = ~0ull;
/** u32 keyLen + u32 blobLen + u64 checksum. */
constexpr std::uint64_t kRecordOverhead = 16;

std::uint64_t
alignUp8(std::uint64_t n)
{
    return (n + 7) & ~7ull;
}

bool
isPow2(std::uint64_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/**
 * Atomic accessors over the shared mapping. gcc builtins rather than
 * std::atomic_ref: the words live in an mmap'd file, not in objects
 * this process constructed, and the builtins make no lifetime claims.
 */
std::uint64_t
loadAcquire(const std::uint8_t *p)
{
    return __atomic_load_n(reinterpret_cast<const std::uint64_t *>(p),
                           __ATOMIC_ACQUIRE);
}

std::uint64_t
loadRelaxed(const std::uint8_t *p)
{
    return __atomic_load_n(reinterpret_cast<const std::uint64_t *>(p),
                           __ATOMIC_RELAXED);
}

void
storeRelease(std::uint8_t *p, std::uint64_t v)
{
    __atomic_store_n(reinterpret_cast<std::uint64_t *>(p), v,
                     __ATOMIC_RELEASE);
}

void
storeRelaxed(std::uint8_t *p, std::uint64_t v)
{
    __atomic_store_n(reinterpret_cast<std::uint64_t *>(p), v,
                     __ATOMIC_RELAXED);
}

std::uint32_t
readU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

void
writeU32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, 4);
}

void
writeU64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, 8);
}

} // namespace

bool
RecordStore::initialize(std::uint32_t app_version,
                        std::size_t index_slots,
                        std::size_t data_capacity)
{
    if (!isPow2(index_slots))
        return false;
    std::uint8_t *b = base();
    const std::uint64_t index_off = kHeaderBytes;
    const std::uint64_t data_off = index_off + index_slots * 8;
    if (data_off + data_capacity > mapping_.size())
        return false;

    // Kill the magic first so a concurrent reader rejects the store
    // for the whole rewrite, then rebuild and restore it last.
    std::memset(b, 0, kHeaderBytes);
    std::memset(b + index_off, 0, index_slots * 8);

    writeU32(b + 8, kRecordStoreFormatVersion);
    writeU32(b + 12, app_version);
    writeU64(b + 16, index_off);
    writeU64(b + 24, index_slots);
    writeU64(b + 32, data_off);
    writeU64(b + 40, data_capacity);
    // Checksum the header as a reader will see it — magic included,
    // checksum field zero — but only place the magic itself after the
    // fence, so a torn initialize can never validate.
    std::uint8_t header[kHeaderChecksumSpan];
    std::memcpy(header, b, kHeaderChecksumSpan);
    std::memcpy(header, kStoreMagic, 8);
    writeU64(b + kHeaderChecksumOff,
             fnv1a64(header, kHeaderChecksumSpan));
    __atomic_thread_fence(__ATOMIC_RELEASE);
    std::memcpy(b, kStoreMagic, 8);

    indexOffset_ = index_off;
    indexSlots_ = index_slots;
    dataOffset_ = data_off;
    dataCapacity_ = data_capacity;
    appVersion_ = app_version;
    return true;
}

bool
RecordStore::validateHeader(std::uint32_t app_version)
{
    const std::uint8_t *b = base();
    if (!mapping_.valid() || mapping_.size() < kHeaderBytes)
        return false;
    if (std::memcmp(b, kStoreMagic, 8) != 0)
        return false;
    if (readU32(b + 8) != kRecordStoreFormatVersion)
        return false;
    if (readU32(b + 12) != app_version)
        return false;
    std::uint8_t header[kHeaderChecksumSpan];
    std::memcpy(header, b, kHeaderChecksumSpan);
    std::memset(header + kHeaderChecksumOff, 0, 8);
    if (fnv1a64(header, kHeaderChecksumSpan) !=
        readU64(b + kHeaderChecksumOff))
        return false;

    const std::uint64_t index_off = readU64(b + 16);
    const std::uint64_t slots = readU64(b + 24);
    const std::uint64_t data_off = readU64(b + 32);
    const std::uint64_t capacity = readU64(b + 40);
    if (index_off < kHeaderBytes || !isPow2(slots) ||
        data_off != index_off + slots * 8 ||
        data_off + capacity > mapping_.size())
        return false;

    indexOffset_ = index_off;
    indexSlots_ = slots;
    dataOffset_ = data_off;
    dataCapacity_ = capacity;
    appVersion_ = app_version;
    return true;
}

bool
RecordStore::open(const std::string &path, std::uint32_t app_version,
                  std::size_t index_slots, std::size_t data_capacity,
                  std::string *error)
{
    close();
    const std::size_t total =
        kHeaderBytes + index_slots * 8 + data_capacity;

    if (!Mapping::openElected(path, total, mapping_, error))
        return false;
    if (mapping_.locked()) {
        if (!validateHeader(app_version) &&
            !initialize(app_version, index_slots, data_capacity)) {
            close();
            if (error)
                *error = "record store: cannot format " + path;
            return false;
        }
        mode_ = Mode::Writer;
        return true;
    }

    // Lost the writer election (or the file is unwritable): read-only
    // against whatever the owning writer has published.
    if (!validateHeader(app_version)) {
        close();
        if (error)
            *error = "record store: " + path +
                     " is not a valid store (writer still "
                     "initializing, or stale format)";
        return false;
    }
    mode_ = Mode::Reader;
    return true;
}

bool
RecordStore::openAnonymous(std::uint32_t app_version,
                           std::size_t index_slots,
                           std::size_t data_capacity)
{
    close();
    const std::size_t total =
        kHeaderBytes + index_slots * 8 + data_capacity;
    if (!Mapping::createAnonymous(total, mapping_))
        return false;
    if (!initialize(app_version, index_slots, data_capacity)) {
        close();
        return false;
    }
    mode_ = Mode::Writer;
    return true;
}

void
RecordStore::close()
{
    mapping_.close();
    mode_ = Mode::Invalid;
    indexOffset_ = indexSlots_ = dataOffset_ = dataCapacity_ = 0;
    appVersion_ = 0;
}

RecordStore::FindResult
RecordStore::find(const std::string &key,
                  std::vector<std::uint8_t> &blob,
                  std::uint64_t *file_offset) const
{
    if (!valid())
        return FindResult::Miss;
    const std::uint8_t *b = base();
    const std::uint64_t mask = indexSlots_ - 1;
    std::uint64_t h = fnv1a64(key);
    for (std::uint64_t probe = 0; probe < indexSlots_; ++probe) {
        const std::uint64_t slot_off =
            indexOffset_ + ((h + probe) & mask) * 8;
        const std::uint64_t slot = loadAcquire(b + slot_off);
        if (slot == 0)
            return FindResult::Miss;
        if (slot == kTombstone)
            continue;
        const std::uint64_t rel = slot - 1;

        // Validate the record in place; the publication protocol
        // guarantees a published slot points at fully written bytes,
        // so any failure here is file damage, not a race.
        if (rel + kRecordOverhead > dataCapacity_)
            return FindResult::Corrupt;
        const std::uint8_t *rec = b + dataOffset_ + rel;
        const std::uint64_t room = dataCapacity_ - rel;
        const std::uint32_t key_len = readU32(rec);
        if (kRecordOverhead + key_len > room)
            return FindResult::Corrupt;
        const std::uint32_t blob_len = readU32(rec + 4 + key_len);
        if (kRecordOverhead + key_len + blob_len > room)
            return FindResult::Corrupt;
        const std::uint64_t body = 8 + key_len + blob_len;
        if (hashArena64(rec, body) != readU64(rec + body))
            return FindResult::Corrupt;
        if (key_len != key.size() ||
            std::memcmp(rec + 4, key.data(), key_len) != 0)
            continue; // honest index collision: probe on
        blob.assign(rec + 8 + key_len, rec + 8 + key_len + blob_len);
        if (file_offset)
            *file_offset = dataOffset_ + rel;
        return FindResult::Hit;
    }
    return FindResult::Miss;
}

bool
RecordStore::put(const std::string &key,
                 const std::vector<std::uint8_t> &blob)
{
    if (!writable())
        return false;
    std::uint8_t *b = base();
    const std::uint64_t record_bytes =
        alignUp8(kRecordOverhead + key.size() + blob.size());
    const std::uint64_t tail = loadRelaxed(b + kDataTailOff);
    if (tail + record_bytes > dataCapacity_) {
        storeRelaxed(b + kPutFailuresOff,
                     loadRelaxed(b + kPutFailuresOff) + 1);
        return false;
    }

    // Find the slot first (existing key, else first reusable slot).
    const std::uint64_t mask = indexSlots_ - 1;
    const std::uint64_t h = fnv1a64(key);
    std::uint64_t slot_off = 0;
    bool found = false;
    bool replacing = false;
    for (std::uint64_t probe = 0; probe < indexSlots_; ++probe) {
        const std::uint64_t off = indexOffset_ + ((h + probe) & mask) * 8;
        const std::uint64_t slot = loadRelaxed(b + off);
        if (slot == 0 || slot == kTombstone) {
            if (!found) {
                slot_off = off;
                found = true;
            }
            if (slot == 0)
                break; // end of this key's probe chain
            continue;
        }
        const std::uint64_t rel = slot - 1;
        if (rel + kRecordOverhead <= dataCapacity_) {
            const std::uint8_t *rec = b + dataOffset_ + rel;
            const std::uint32_t key_len = readU32(rec);
            if (key_len == key.size() &&
                kRecordOverhead + key_len <= dataCapacity_ - rel &&
                std::memcmp(rec + 4, key.data(), key_len) == 0) {
                slot_off = off;
                found = true;
                replacing = true;
                break;
            }
        }
    }
    if (!found) {
        storeRelaxed(b + kPutFailuresOff,
                     loadRelaxed(b + kPutFailuresOff) + 1);
        return false; // index full
    }

    // Write and checksum the record, THEN publish the slot: the
    // single release store is the commit point a reader's acquire
    // load pairs with.
    std::uint8_t *rec = b + dataOffset_ + tail;
    writeU32(rec, static_cast<std::uint32_t>(key.size()));
    std::memcpy(rec + 4, key.data(), key.size());
    writeU32(rec + 4 + key.size(),
             static_cast<std::uint32_t>(blob.size()));
    std::memcpy(rec + 8 + key.size(), blob.data(), blob.size());
    const std::uint64_t body = 8 + key.size() + blob.size();
    writeU64(rec + body, hashArena64(rec, body));

    const std::uint64_t seq = loadRelaxed(b + kSeqOff);
    storeRelease(b + kSeqOff, seq + 1); // odd: stats update in flight
    storeRelease(b + slot_off, tail + 1);
    storeRelaxed(b + kDataTailOff, tail + record_bytes);
    if (!replacing)
        storeRelaxed(b + kEntryCountOff,
                     loadRelaxed(b + kEntryCountOff) + 1);
    storeRelease(b + kSeqOff, seq + 2);
    return true;
}

bool
RecordStore::erase(const std::string &key)
{
    if (!writable())
        return false;
    std::uint8_t *b = base();
    const std::uint64_t mask = indexSlots_ - 1;
    const std::uint64_t h = fnv1a64(key);
    for (std::uint64_t probe = 0; probe < indexSlots_; ++probe) {
        const std::uint64_t off = indexOffset_ + ((h + probe) & mask) * 8;
        const std::uint64_t slot = loadRelaxed(b + off);
        if (slot == 0)
            return false;
        if (slot == kTombstone)
            continue;
        const std::uint64_t rel = slot - 1;
        if (rel + kRecordOverhead > dataCapacity_)
            continue;
        const std::uint8_t *rec = b + dataOffset_ + rel;
        const std::uint32_t key_len = readU32(rec);
        if (key_len != key.size() ||
            kRecordOverhead + key_len > dataCapacity_ - rel ||
            std::memcmp(rec + 4, key.data(), key_len) != 0)
            continue;
        const std::uint64_t seq = loadRelaxed(b + kSeqOff);
        storeRelease(b + kSeqOff, seq + 1);
        storeRelease(b + off, kTombstone);
        storeRelaxed(b + kEntryCountOff,
                     loadRelaxed(b + kEntryCountOff) - 1);
        storeRelease(b + kSeqOff, seq + 2);
        return true;
    }
    return false;
}

bool
RecordStore::clear()
{
    if (!writable())
        return false;
    std::uint8_t *b = base();
    const std::uint64_t seq = loadRelaxed(b + kSeqOff);
    storeRelease(b + kSeqOff, seq + 1);
    for (std::uint64_t i = 0; i < indexSlots_; ++i)
        storeRelaxed(b + indexOffset_ + i * 8, 0);
    storeRelaxed(b + kDataTailOff, 0);
    storeRelaxed(b + kEntryCountOff, 0);
    storeRelease(b + kSeqOff, seq + 2);
    return true;
}

void
RecordStore::forEachRecord(
    const std::function<void(const std::string &, const std::uint8_t *,
                             std::size_t)> &fn) const
{
    if (!valid())
        return;
    const std::uint8_t *b = base();
    for (std::uint64_t i = 0; i < indexSlots_; ++i) {
        const std::uint64_t slot =
            loadAcquire(b + indexOffset_ + i * 8);
        if (slot == 0 || slot == kTombstone)
            continue;
        const std::uint64_t rel = slot - 1;
        if (rel + kRecordOverhead > dataCapacity_)
            continue;
        const std::uint8_t *rec = b + dataOffset_ + rel;
        const std::uint64_t room = dataCapacity_ - rel;
        const std::uint32_t key_len = readU32(rec);
        if (kRecordOverhead + key_len > room)
            continue;
        const std::uint32_t blob_len = readU32(rec + 4 + key_len);
        if (kRecordOverhead + key_len + blob_len > room)
            continue;
        const std::uint64_t body = 8 + key_len + blob_len;
        if (hashArena64(rec, body) != readU64(rec + body))
            continue;
        const std::string key(reinterpret_cast<const char *>(rec + 4),
                              key_len);
        fn(key, rec + 8 + key_len, blob_len);
    }
}

RecordStore::Stats
RecordStore::stats() const
{
    Stats s;
    if (!valid())
        return s;
    const std::uint8_t *b = base();
    s.dataCapacity = dataCapacity_;
    s.indexSlots = indexSlots_;
    s.storeVersion = kRecordStoreFormatVersion;
    s.appVersion = appVersion_;
    for (;;) {
        const std::uint64_t s1 = loadAcquire(b + kSeqOff);
        if (s1 & 1)
            continue;
        s.entries = loadRelaxed(b + kEntryCountOff);
        s.dataBytes = loadRelaxed(b + kDataTailOff);
        s.putFailures = loadRelaxed(b + kPutFailuresOff);
        __atomic_thread_fence(__ATOMIC_ACQUIRE);
        if (loadRelaxed(b + kSeqOff) == s1)
            return s;
    }
}

} // namespace store
} // namespace crw
