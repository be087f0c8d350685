#include "common/byteio.h"

#include <cstdio>
#include <filesystem>

#include <sys/stat.h>

namespace crw {

bool
writeFileAtomic(const std::vector<std::uint8_t> &bytes,
                const std::string &path, std::string *error)
{
    const std::string tmp = path + ".tmp";
    std::FILE *fp = std::fopen(tmp.c_str(), "wb");
    if (!fp) {
        if (error)
            *error = "cannot open " + tmp;
        return false;
    }
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), fp) == bytes.size();
    std::fclose(fp);
    if (!wrote) {
        if (error)
            *error = "short write to " + tmp;
        std::remove(tmp.c_str());
        return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        if (error)
            *error = "rename failed: " + ec.message();
        std::remove(tmp.c_str());
        return false;
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
