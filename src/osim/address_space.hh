/**
 * @file
 * Per-process virtual address space with page-granular permissions.
 *
 * Each allocation becomes a contiguous mapping backed by private bytes
 * or by a shared-memory segment. A mapping lives until unmap(); the
 * bytes behind it live until the last mapping (or segment) holding
 * them lets go. All reads and writes are permission checked, which is
 * exactly how FreePart's temporal mprotect-based protection (Fig. 3)
 * stops data-corruption payloads: once a data object's pages are
 * flipped to read-only, any write raises MemFault.
 */

#ifndef FREEPART_OSIM_ADDRESS_SPACE_HH
#define FREEPART_OSIM_ADDRESS_SPACE_HH

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "osim/types.hh"

namespace freepart::osim {

/**
 * Zero-filled bytes behind one or more mappings, owned until the last
 * holder lets go. The zeros come from the host OS in one of two ways:
 *
 *  - Heap: calloc. Private mappings are many and short-lived, and a
 *    recycled heap chunk is cheaper than fresh pages.
 *  - HostPages: anonymous mmap. Shm segments are few, large and
 *    mostly untouched; every page reads as the host's shared zero
 *    page until its first write, so an idle ring costs no memory.
 */
class ByteBuffer
{
  public:
    enum class Zeros : uint8_t { Heap, HostPages };

    /** Allocate size zero bytes. @throws std::bad_alloc */
    ByteBuffer(size_t size, Zeros zeros);
    ~ByteBuffer();

    ByteBuffer(const ByteBuffer &) = delete;
    ByteBuffer &operator=(const ByteBuffer &) = delete;

    uint8_t *data() const { return bytes_; }
    size_t size() const { return size_; }

  private:
    uint8_t *bytes_;
    size_t size_;
    Zeros zeros_;
};

/** Shared handle to a mapping's bytes (private or shm-backed). */
using Backing = std::shared_ptr<ByteBuffer>;

/**
 * Callback fired after every successful mutating access (write() or a
 * writable checkedSpan()). This is the simulated analogue of the
 * soft-dirty / write-protect tracking the dirty-epoch incremental
 * checkpoints need: the ObjectStore registers one to stamp the
 * touched object with the current write epoch.
 */
using WriteObserver = std::function<void(Addr addr, size_t len)>;

/** One contiguous mapping inside an AddressSpace. */
struct Mapping {
    Addr base = kNullAddr;        //!< first mapped address
    size_t length = 0;            //!< mapped length in bytes
    Backing backing;              //!< backing bytes (size >= length)
    size_t backingOff = 0;        //!< offset of base within backing
    bool shared = false;          //!< true if backed by a shm segment
    std::string label;            //!< debug label ("Mat#3", "shm:ch0")
};

/**
 * A sparse simulated virtual address space.
 *
 * Allocations are page aligned and never reuse addresses (a bump
 * allocator), so a dangling reference to unmapped memory — say, the
 * old address of an object that died — faults with "unmapped page"
 * instead of reading dead bytes or silently aliasing a newer object.
 */
class AddressSpace
{
  public:
    /** Create an address space whose first mapping starts at base. */
    explicit AddressSpace(Pid owner, Addr base = 0x10000);

    /**
     * Allocate a zero-initialized private mapping. Its bytes are
     * released by unmap(); nothing else frees them.
     *
     * @param size   Length in bytes (rounded up to page size).
     * @param perms  Initial page permissions.
     * @param label  Debug label recorded on the mapping.
     * @return Base address of the new mapping.
     */
    Addr alloc(size_t size, Perms perms = PermRW,
               const std::string &label = "");

    /**
     * Map a shared backing (shm segment) into this space.
     *
     * @param backing  Shared bytes, page-rounded in size (panics
     *                 otherwise); the mapping holds a reference.
     * @param perms    Initial page permissions.
     * @param label    Debug label recorded on the mapping.
     * @return Base address of the new mapping.
     */
    Addr mapShared(Backing backing, Perms perms,
                   const std::string &label = "");

    /** Unmap the mapping that starts exactly at base, dropping its
     *  reference to the backing bytes. */
    void unmap(Addr base);

    /**
     * Change page permissions for [addr, addr+len). Rounds outward to
     * page boundaries. All touched pages must be mapped.
     */
    void protect(Addr addr, size_t len, Perms perms);

    /** Permissions of the page containing addr (PermNone if unmapped). */
    Perms permsAt(Addr addr) const;

    /** True if [addr, addr+len) lies fully inside one mapping. */
    bool isMapped(Addr addr, size_t len) const;

    /** Permission-checked read of len bytes at addr. @throws MemFault */
    void read(Addr addr, void *dst, size_t len) const;

    /** Permission-checked write of len bytes at addr. @throws MemFault */
    void write(Addr addr, const void *src, size_t len);

    /** Read a trivially-copyable value. */
    template <typename T>
    T
    readValue(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Write a trivially-copyable value. */
    template <typename T>
    void
    writeValue(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /**
     * Raw pointer into the backing bytes for [addr, addr+len), with
     * permission checks applied once up front. Used by compute kernels
     * that stream over large buffers; the permission semantics are the
     * same as issuing a single big read/write.
     *
     * @param for_write  Check write (true) or read (false) permission.
     */
    uint8_t *checkedSpan(Addr addr, size_t len, bool for_write);
    const uint8_t *checkedSpan(Addr addr, size_t len) const;

    /** Total bytes currently mapped. */
    size_t mappedBytes() const { return totalMapped; }

    /** Number of live mappings. */
    size_t mappingCount() const { return mappings.size(); }

    /** Owning process id (for fault attribution). */
    Pid owner() const { return ownerPid; }

    /** The mapping containing addr, or nullptr. */
    const Mapping *findMapping(Addr addr) const;

    /**
     * Install (or clear, with nullptr) the write observer. At most
     * one; a respawn replaces the whole space, so the new incarnation
     * starts unobserved until the store rebinds.
     */
    void
    setWriteObserver(WriteObserver observer)
    {
        writeObserver = std::move(observer);
    }

  private:
    /** Bytes behind [addr, addr+len) after the mapping and page
     *  checks. @throws MemFault ("unmapped page" when no mapping
     *  holds addr, "<what> outside mapping" on an overrun) */
    uint8_t *checkedBytes(Addr addr, size_t len, Perms need,
                          bool is_write, const char *what) const;
    void checkPages(Addr addr, size_t len, Perms need, bool is_write)
        const;

    void
    notifyWrite(Addr addr, size_t len)
    {
        if (writeObserver)
            writeObserver(addr, len);
    }

    Pid ownerPid;
    Addr nextAddr;
    std::map<Addr, Mapping> mappings;  //!< keyed by base address
    std::unordered_map<uint64_t, uint8_t> pagePerms;
    size_t totalMapped = 0;
    WriteObserver writeObserver;
};

} // namespace freepart::osim

#endif // FREEPART_OSIM_ADDRESS_SPACE_HH
