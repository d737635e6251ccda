#include "osim/address_space.hh"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

#include "util/logging.hh"

namespace freepart::osim {

ByteBuffer::ByteBuffer(size_t size, Zeros zeros)
    : bytes_(nullptr), size_(size), zeros_(zeros)
{
    if (size == 0)
        util::panic("ByteBuffer: zero size");
    void *bytes = nullptr;
    if (zeros == Zeros::HostPages) {
        bytes = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (bytes == MAP_FAILED)
            bytes = nullptr;
    } else {
        bytes = std::calloc(size, 1);
    }
    if (!bytes)
        throw std::bad_alloc();
    bytes_ = static_cast<uint8_t *>(bytes);
}

ByteBuffer::~ByteBuffer()
{
    if (zeros_ == Zeros::HostPages)
        munmap(bytes_, size_);
    else
        std::free(bytes_);
}

AddressSpace::AddressSpace(Pid owner, Addr base)
    : ownerPid(owner), nextAddr(pageBase(base + kPageSize - 1))
{
}

Addr
AddressSpace::alloc(size_t size, Perms perms, const std::string &label)
{
    if (size == 0)
        size = 1;
    size_t rounded = (size + kPageSize - 1) & ~(kPageSize - 1);
    Mapping m;
    m.base = nextAddr;
    m.length = rounded;
    m.backing =
        std::make_shared<ByteBuffer>(rounded, ByteBuffer::Zeros::Heap);
    m.backingOff = 0;
    m.shared = false;
    m.label = label;
    for (uint64_t p = pageIndex(m.base);
         p < pageIndex(m.base) + rounded / kPageSize; ++p)
        pagePerms[p] = perms;
    nextAddr += rounded + kPageSize;  // guard page between mappings
    totalMapped += rounded;
    Addr base = m.base;
    mappings.emplace(base, std::move(m));
    return base;
}

Addr
AddressSpace::mapShared(Backing backing, Perms perms,
                        const std::string &label)
{
    if (!backing)
        util::panic("mapShared: null backing");
    size_t rounded = backing->size();
    if (rounded % kPageSize != 0)
        util::panic("mapShared: segment of %zu bytes is not page-rounded",
                    rounded);
    Mapping m;
    m.base = nextAddr;
    m.length = rounded;
    m.backing = std::move(backing);
    m.backingOff = 0;
    m.shared = true;
    m.label = label;
    for (uint64_t p = pageIndex(m.base);
         p < pageIndex(m.base) + rounded / kPageSize; ++p)
        pagePerms[p] = perms;
    nextAddr += rounded + kPageSize;
    totalMapped += rounded;
    Addr base = m.base;
    mappings.emplace(base, std::move(m));
    return base;
}

void
AddressSpace::unmap(Addr base)
{
    auto it = mappings.find(base);
    if (it == mappings.end())
        util::panic("unmap: no mapping at base 0x%llx",
                    static_cast<unsigned long long>(base));
    for (uint64_t p = pageIndex(base);
         p < pageIndex(base) + it->second.length / kPageSize; ++p)
        pagePerms.erase(p);
    totalMapped -= it->second.length;
    mappings.erase(it);
}

void
AddressSpace::protect(Addr addr, size_t len, Perms perms)
{
    if (len == 0)
        return;
    uint64_t first = pageIndex(addr);
    uint64_t last = pageIndex(addr + len - 1);
    for (uint64_t p = first; p <= last; ++p) {
        auto it = pagePerms.find(p);
        if (it == pagePerms.end())
            throw MemFault(ownerPid, p * kPageSize, false,
                           "mprotect of unmapped page");
        it->second = perms;
    }
}

Perms
AddressSpace::permsAt(Addr addr) const
{
    auto it = pagePerms.find(pageIndex(addr));
    if (it == pagePerms.end())
        return PermNone;
    return static_cast<Perms>(it->second);
}

const Mapping *
AddressSpace::findMapping(Addr addr) const
{
    auto it = mappings.upper_bound(addr);
    if (it == mappings.begin())
        return nullptr;
    --it;
    const Mapping &m = it->second;
    if (addr >= m.base && addr < m.base + m.length)
        return &m;
    return nullptr;
}

bool
AddressSpace::isMapped(Addr addr, size_t len) const
{
    const Mapping *m = findMapping(addr);
    return m && addr + len <= m->base + m->length;
}

void
AddressSpace::checkPages(Addr addr, size_t len, Perms need,
                         bool is_write) const
{
    if (len == 0)
        return;
    uint64_t first = pageIndex(addr);
    uint64_t last = pageIndex(addr + len - 1);
    for (uint64_t p = first; p <= last; ++p) {
        auto it = pagePerms.find(p);
        if (it == pagePerms.end())
            throw MemFault(ownerPid, p * kPageSize, is_write,
                           "unmapped page");
        if ((it->second & need) != need)
            throw MemFault(ownerPid, p * kPageSize, is_write,
                           is_write ? "page not writable"
                                    : "page not readable");
    }
}

uint8_t *
AddressSpace::checkedBytes(Addr addr, size_t len, Perms need,
                           bool is_write, const char *what) const
{
    const Mapping *m = findMapping(addr);
    if (!m)
        throw MemFault(ownerPid, addr, is_write, "unmapped page");
    if (addr + len > m->base + m->length)
        throw MemFault(ownerPid, addr, is_write,
                       std::string(what) + " outside mapping");
    checkPages(addr, len, need, is_write);
    return m->backing->data() + m->backingOff + (addr - m->base);
}

void
AddressSpace::read(Addr addr, void *dst, size_t len) const
{
    std::memcpy(dst, checkedBytes(addr, len, PermRead, false, "read"),
                len);
}

void
AddressSpace::write(Addr addr, const void *src, size_t len)
{
    std::memcpy(checkedBytes(addr, len, PermWrite, true, "write"), src,
                len);
    notifyWrite(addr, len);
}

uint8_t *
AddressSpace::checkedSpan(Addr addr, size_t len, bool for_write)
{
    uint8_t *bytes = checkedBytes(
        addr, len, for_write ? PermWrite : PermRead, for_write, "span");
    // A writable span hands out raw bytes, so the actual stores are
    // invisible; conservatively treat the whole span as dirtied (the
    // same over-approximation a page-granular soft-dirty bit makes).
    if (for_write)
        notifyWrite(addr, len);
    return bytes;
}

const uint8_t *
AddressSpace::checkedSpan(Addr addr, size_t len) const
{
    return checkedBytes(addr, len, PermRead, false, "span");
}

} // namespace freepart::osim
