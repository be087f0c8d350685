#include "sparc/memory.h"

#include <cstring>

#include "common/logging.h"

namespace crw {
namespace sparc {

Memory::Memory(std::size_t size_bytes) : bytes_(size_bytes)
{
    crw_assert(size_bytes >= 4096);
}

void
Memory::loadBlock(Addr addr, const void *data, std::size_t len)
{
    if (!inBounds(addr, len))
        crw_fatal << "program image does not fit memory: addr=" << addr
                  << " len=" << len;
    std::memcpy(bytes_.data() + addr, data, len);
}

void
Memory::clear()
{
    std::fill(bytes_.begin(), bytes_.end(), 0);
}

} // namespace sparc
} // namespace crw
