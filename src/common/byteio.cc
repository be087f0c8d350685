#include "common/byteio.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

namespace crw {

namespace {

/** Write all @p n bytes at @p p to @p fd, retrying short writes. */
bool
writeAll(int fd, const void *p, std::size_t n)
{
    const char *at = static_cast<const char *>(p);
    while (n > 0) {
        const ssize_t put = ::write(fd, at, n);
        if (put < 0 && errno == EINTR)
            continue;
        if (put <= 0)
            return false;
        at += put;
        n -= static_cast<std::size_t>(put);
    }
    return true;
}

} // namespace

bool
writeFileAtomic(const std::vector<ByteRange> &ranges,
                const std::string &path, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    // mkstemp names the file uniquely in the target directory (so the
    // rename stays on one file system) and creates it 0600; widen it
    // to what a plain fopen would have made.
    std::string tmp = path + ".tmpXXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0)
        return fail("cannot create a temp file beside " + path + ": " +
                    std::strerror(errno));
    bool wrote = ::fchmod(fd, 0644) == 0;
    for (const ByteRange &r : ranges)
        wrote = wrote && writeAll(fd, r.data, r.bytes);
    if (::close(fd) != 0)
        wrote = false;
    if (!wrote) {
        ::unlink(tmp.c_str());
        return fail("short write to " + tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string why = std::strerror(errno);
        ::unlink(tmp.c_str());
        return fail("rename failed: " + why);
    }
    return true;
}

FilePtr
openFileForRead(const std::string &path, std::uint64_t &size,
                std::string *error)
{
    FilePtr fp(std::fopen(path.c_str(), "rb"));
    struct stat st = {};
    if (!fp || ::fstat(::fileno(fp.get()), &st) != 0) {
        if (error)
            *error = "cannot open " + path;
        return nullptr;
    }
    size = static_cast<std::uint64_t>(st.st_size);
    return fp;
}

} // namespace crw
