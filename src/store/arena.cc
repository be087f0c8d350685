#include "store/arena.h"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/byteio.h"

namespace crw {
namespace store {

namespace {

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

std::uint64_t
hashRanges(const ByteRange *ranges, std::size_t count)
{
    // Eight bytes per step: xor-fold each word into the state, then
    // multiply-mix (the FNV idea at word granularity, with an extra
    // shift-xor so high bytes diffuse). The short tail goes through
    // plain FNV-1a seeded with the running state. A word that
    // straddles two ranges is gathered in `carry` first, so the
    // result is the hash of the ranges' concatenation.
    const ByteRange *const end = ranges + count;
    std::size_t n = 0;
    for (const ByteRange *r = ranges; r != end; ++r)
        n += r->bytes;
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
    const auto mix = [&h](const std::uint8_t *at) {
        std::uint64_t w;
        std::memcpy(&w, at, 8);
        h ^= w;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 29;
    };
    std::uint8_t carry[8];
    std::size_t have = 0;
    for (const ByteRange *r = ranges; r != end; ++r) {
        if (r->bytes == 0) // an empty range's data may be null
            continue;
        const std::uint8_t *p = static_cast<const std::uint8_t *>(r->data);
        std::size_t left = r->bytes;
        if (have != 0) {
            const std::size_t take = std::min(sizeof carry - have, left);
            std::memcpy(carry + have, p, take);
            have += take;
            p += take;
            left -= take;
            if (have < sizeof carry)
                continue;
            mix(carry);
            have = 0;
        }
        for (; left >= 8; p += 8, left -= 8)
            mix(p);
        std::memcpy(carry, p, left);
        have = left;
    }
    return fnv1a64(carry, have, h);
}

} // namespace

std::uint64_t
hashArena64(const void *data, std::size_t n)
{
    const ByteRange one{data, n};
    return hashRanges(&one, 1);
}

std::uint64_t
hashArena64(const std::vector<ByteRange> &ranges)
{
    return hashRanges(ranges.data(), ranges.size());
}

// ---------------------------------------------------------------- Mapping

Mapping::~Mapping()
{
    close();
}

Mapping::Mapping(Mapping &&other) noexcept
    : addr_(other.addr_),
      size_(other.size_),
      fd_(other.fd_),
      writable_(other.writable_),
      locked_(other.locked_)
{
    other.addr_ = nullptr;
    other.size_ = 0;
    other.fd_ = -1;
    other.writable_ = false;
    other.locked_ = false;
}

Mapping &
Mapping::operator=(Mapping &&other) noexcept
{
    if (this != &other) {
        close();
        addr_ = other.addr_;
        size_ = other.size_;
        fd_ = other.fd_;
        writable_ = other.writable_;
        locked_ = other.locked_;
        other.addr_ = nullptr;
        other.size_ = 0;
        other.fd_ = -1;
        other.writable_ = false;
        other.locked_ = false;
    }
    return *this;
}

void
Mapping::close()
{
    if (addr_) {
        ::munmap(addr_, size_);
        addr_ = nullptr;
    }
    if (fd_ >= 0) {
        ::close(fd_); // releases any flock
        fd_ = -1;
    }
    size_ = 0;
    writable_ = false;
    locked_ = false;
}

bool
Mapping::mapFd(int fd, const std::string &path, std::size_t min_size,
               bool writable, std::string *error)
{
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return fail(error, "cannot stat " + path);
    }
    std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size < min_size) {
        if (::ftruncate(fd, static_cast<off_t>(min_size)) != 0) {
            ::close(fd);
            return fail(error, "cannot size " + path);
        }
        size = min_size;
    }
    if (size == 0) {
        ::close(fd);
        return fail(error, path + " is empty");
    }

    void *addr =
        ::mmap(nullptr, size, PROT_READ | (writable ? PROT_WRITE : 0),
               writable ? MAP_SHARED : MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
        ::close(fd);
        return fail(error, "cannot map " + path);
    }
    addr_ = addr;
    size_ = size;
    fd_ = fd;
    writable_ = writable;
    return true;
}

bool
Mapping::openReadOnly(const std::string &path, Mapping &out,
                      std::string *error)
{
    out.close();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(error, "cannot open " + path);
    return out.mapFd(fd, path, 0, /*writable=*/false, error);
}

bool
Mapping::openElected(const std::string &path, std::size_t size,
                     Mapping &out, std::string *error)
{
    out.close();
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd >= 0 && ::flock(fd, LOCK_EX | LOCK_NB) == 0) {
        if (!out.mapFd(fd, path, size, /*writable=*/true, error))
            return false;
        out.locked_ = true;
        return true;
    }
    if (fd >= 0)
        ::close(fd);
    return openReadOnly(path, out, error);
}

bool
Mapping::createAnonymous(std::size_t size, Mapping &out,
                         std::string *error)
{
    out.close();
    if (size == 0)
        return fail(error, "anonymous mapping needs a size");
    void *addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (addr == MAP_FAILED)
        return fail(error, "cannot map anonymous memory");
    out.addr_ = addr;
    out.size_ = size;
    out.fd_ = -1;
    out.writable_ = true;
    return true;
}

} // namespace store
} // namespace crw
