#include "obs/ring.h"

#include <cstring>

namespace crw {
namespace obs {

namespace {

constexpr char kRingMagic[8] = {'C', 'R', 'W', 'E', 'R', 'I', 'N', 'G'};
constexpr std::size_t kHeadOff = 16;
constexpr std::size_t kSlotsOff = 64;
constexpr std::size_t kSlotBytes = 24;

static_assert(sizeof(RingEvent) == kSlotBytes,
              "RingEvent must pack to the on-disk slot size");

bool
isPow2(std::uint32_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

std::uint64_t
loadHead(const std::uint8_t *base)
{
    return __atomic_load_n(
        reinterpret_cast<const std::uint64_t *>(base + kHeadOff),
        __ATOMIC_ACQUIRE);
}

void
storeHead(std::uint8_t *base, std::uint64_t v)
{
    __atomic_store_n(
        reinterpret_cast<std::uint64_t *>(base + kHeadOff), v,
        __ATOMIC_RELEASE);
}

} // namespace

const char *
ringEventName(RingEventCode code)
{
    switch (code) {
      case RingEventCode::None:          return "none";
      case RingEventCode::ReplayPoint:   return "replay.point";
      case RingEventCode::CacheHit:      return "cache.hit";
      case RingEventCode::CacheMiss:     return "cache.miss";
      case RingEventCode::CacheStore:    return "cache.store";
      case RingEventCode::CacheCorrupt:  return "cache.corrupt";
      case RingEventCode::FlatAttach:    return "flat.attach";
      case RingEventCode::FlatPredecode: return "flat.predecode";
      case RingEventCode::FlatStore:     return "flat.store";
      case RingEventCode::PoolJobStart:  return "pool.job_start";
      case RingEventCode::PoolJobEnd:    return "pool.job_end";
      case RingEventCode::ReplayBatch:   return "replay.batch";
      case RingEventCode::ReplayBatchFallback:
          return "replay.batch_fallback";
      case RingEventCode::ReplaySimd:    return "replay.simd";
    }
    return "unknown";
}

bool
EventRing::initialize(std::uint32_t capacity)
{
    std::uint8_t *b = static_cast<std::uint8_t *>(mapping_.data());
    std::memset(b, 0, kSlotsOff);
    std::memcpy(b + 8 + 4, &capacity, 4); // off 12
    const std::uint32_t version = kEventRingFormatVersion;
    std::memcpy(b + 8, &version, 4);
    __atomic_thread_fence(__ATOMIC_RELEASE);
    std::memcpy(b, kRingMagic, 8);
    capacity_ = capacity;
    return true;
}

bool
EventRing::validateHeader()
{
    const std::uint8_t *b =
        static_cast<const std::uint8_t *>(mapping_.data());
    if (!mapping_.valid() || mapping_.size() < kSlotsOff)
        return false;
    if (std::memcmp(b, kRingMagic, 8) != 0)
        return false;
    std::uint32_t version, capacity;
    std::memcpy(&version, b + 8, 4);
    std::memcpy(&capacity, b + 12, 4);
    if (version != kEventRingFormatVersion || !isPow2(capacity))
        return false;
    if (kSlotsOff + static_cast<std::size_t>(capacity) * kSlotBytes >
        mapping_.size())
        return false;
    capacity_ = capacity;
    return true;
}

bool
EventRing::openFile(const std::string &path, std::uint32_t capacity,
                    std::string *error)
{
    close();
    if (!isPow2(capacity)) {
        if (error)
            *error = "ring capacity must be a power of two";
        return false;
    }
    const std::size_t total =
        kSlotsOff + static_cast<std::size_t>(capacity) * kSlotBytes;

    if (!store::Mapping::openElected(path, total, mapping_, error))
        return false;
    if (mapping_.locked()) {
        if (!validateHeader())
            initialize(capacity);
        return true;
    }
    if (!validateHeader()) {
        close();
        if (error)
            *error = "ring at " + path + " did not validate";
        return false;
    }
    return true;
}

bool
EventRing::openAnonymous(std::uint32_t capacity)
{
    close();
    if (!isPow2(capacity))
        return false;
    const std::size_t total =
        kSlotsOff + static_cast<std::size_t>(capacity) * kSlotBytes;
    if (!store::Mapping::createAnonymous(total, mapping_))
        return false;
    return initialize(capacity);
}

void
EventRing::close()
{
    mapping_.close();
    capacity_ = 0;
}

bool
EventRing::publish(const RingEvent &event)
{
    if (!valid() || !mapping_.writable())
        return false;
    std::uint8_t *b = static_cast<std::uint8_t *>(mapping_.data());
    std::lock_guard<std::mutex> lock(publishMu_);
    const std::uint64_t head = loadHead(b);
    std::uint8_t *slot =
        b + kSlotsOff + (head & (capacity_ - 1)) * kSlotBytes;
    std::memcpy(slot, &event, kSlotBytes);
    storeHead(b, head + 1); // commit point for cross-process readers
    return true;
}

std::uint64_t
EventRing::published() const
{
    if (!valid())
        return 0;
    return loadHead(static_cast<const std::uint8_t *>(mapping_.data()));
}

std::vector<RingEvent>
EventRing::snapshot() const
{
    std::vector<RingEvent> out;
    if (!valid())
        return out;
    const std::uint8_t *b =
        static_cast<const std::uint8_t *>(mapping_.data());
    const std::uint64_t head = loadHead(b);
    const std::uint64_t resident =
        head < capacity_ ? head : capacity_;
    const std::uint64_t first = head - resident;

    std::vector<RingEvent> copy(resident);
    for (std::uint64_t i = 0; i < resident; ++i)
        std::memcpy(&copy[i],
                    b + kSlotsOff +
                        ((first + i) & (capacity_ - 1)) * kSlotBytes,
                    kSlotBytes);
    __atomic_thread_fence(__ATOMIC_ACQUIRE);

    // Anything the writer lapped while we copied is torn: keep only
    // slots still at least a full lap ahead of the new head.
    const std::uint64_t head_after = loadHead(b);
    const std::uint64_t safe_first =
        head_after < capacity_ ? 0 : head_after - capacity_;
    out.reserve(resident);
    for (std::uint64_t i = 0; i < resident; ++i)
        if (first + i >= safe_first)
            out.push_back(copy[i]);
    return out;
}

} // namespace obs
} // namespace crw
