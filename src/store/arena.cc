#include "store/arena.h"

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

} // namespace

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
