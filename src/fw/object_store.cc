#include "fw/object_store.hh"

#include "util/logging.hh"

namespace freepart::fw {

ObjectStore::ObjectStore(osim::Kernel &kernel, osim::Pid pid,
                         uint64_t *id_counter)
    : kernel(kernel), pid_(pid), idCounter(id_counter)
{
    if (!id_counter)
        util::panic("ObjectStore: null id counter");
    bindObserver();
}

ObjectStore::~ObjectStore()
{
    // The kernel (and its processes) outlive the runtime that owns
    // this store; leave no dangling observer behind.
    kernel.process(pid_).space().setWriteObserver(nullptr);
}

void
ObjectStore::bindObserver()
{
    kernel.process(pid_).space().setWriteObserver(
        [this](osim::Addr addr, size_t len) { noteWrite(addr, len); });
}

void
ObjectStore::noteWrite(osim::Addr addr, size_t len)
{
    // Every mutating access advances the epoch, whether or not it
    // lands inside a registered object — the counter is a global
    // "time" for this process's memory, not a per-object one.
    ++writeEpoch_;
    auto it = byAddr.upper_bound(addr);
    if (it == byAddr.begin())
        return;
    --it;
    auto obj = objects.find(it->second);
    if (obj == objects.end())
        return;
    if (addr < obj->second.addr + obj->second.byteLen &&
        addr + len > obj->second.addr)
        obj->second.dirtyEpoch = writeEpoch_;
}

uint64_t
ObjectStore::putMat(const MatDesc &desc, const std::string &label)
{
    uint64_t id = ++*idCounter;
    StoredObject obj;
    obj.kind = ObjKind::Mat;
    obj.mat = desc;
    obj.addr = desc.addr;
    obj.byteLen = desc.byteLen();
    obj.label = label;
    auto [it, ok] = objects.emplace(id, std::move(obj));
    track(id, it->second);
    markDirty(it->second); // fresh objects are dirty by definition
    return id;
}

uint64_t
ObjectStore::putTensor(const TensorDesc &desc, const std::string &label)
{
    uint64_t id = ++*idCounter;
    StoredObject obj;
    obj.kind = ObjKind::Tensor;
    obj.tensor = desc;
    obj.addr = desc.addr;
    obj.byteLen = desc.byteLen();
    obj.label = label;
    auto [it, ok] = objects.emplace(id, std::move(obj));
    track(id, it->second);
    markDirty(it->second);
    return id;
}

uint64_t
ObjectStore::putBytes(osim::Addr addr, size_t len,
                      const std::string &label)
{
    uint64_t id = ++*idCounter;
    StoredObject obj;
    obj.kind = ObjKind::Bytes;
    obj.addr = addr;
    obj.byteLen = len;
    obj.label = label;
    auto [it, ok] = objects.emplace(id, std::move(obj));
    track(id, it->second);
    markDirty(it->second);
    return id;
}

const StoredObject &
ObjectStore::get(uint64_t id) const
{
    auto it = objects.find(id);
    if (it == objects.end())
        util::panic("ObjectStore(pid %u): unknown object %llu "
                    "(shard %u, index %llu)",
                    pid_, static_cast<unsigned long long>(id),
                    shardOfObjectId(id),
                    static_cast<unsigned long long>(
                        objectIdIndex(id)));
    return it->second;
}

const MatDesc &
ObjectStore::mat(uint64_t id) const
{
    const StoredObject &obj = get(id);
    if (obj.kind != ObjKind::Mat)
        util::panic("ObjectStore: object %llu is not a Mat",
                    static_cast<unsigned long long>(id));
    return obj.mat;
}

const TensorDesc &
ObjectStore::tensor(uint64_t id) const
{
    const StoredObject &obj = get(id);
    if (obj.kind != ObjKind::Tensor)
        util::panic("ObjectStore: object %llu is not a Tensor",
                    static_cast<unsigned long long>(id));
    return obj.tensor;
}

void
ObjectStore::track(uint64_t id, const StoredObject &obj)
{
    byAddr[obj.addr] = id;
    const osim::Mapping *m =
        kernel.process(pid_).space().findMapping(obj.addr);
    if (m && !m->shared) // a ring segment is never an object's to free
        ++holders[m->base];
}

void
ObjectStore::untrack(uint64_t id, const StoredObject &obj)
{
    auto by = byAddr.find(obj.addr);
    if (by != byAddr.end() && by->second == id)
        byAddr.erase(by);
    osim::AddressSpace &space = kernel.process(pid_).space();
    const osim::Mapping *m = space.findMapping(obj.addr);
    if (!m)
        return;
    auto held = holders.find(m->base);
    if (held == holders.end() || --held->second > 0)
        return;
    holders.erase(held);
    osim::Addr base = m->base;
    size_t len = m->length;
    // Straight to the address space, not sysMunmap: reclaiming a dead
    // object's memory is not a syscall the program pays for.
    space.unmap(base);
    if (releaseObserver)
        releaseObserver(base, len);
}

void
ObjectStore::erase(uint64_t id)
{
    auto it = objects.find(id);
    if (it == objects.end())
        return;
    untrack(id, it->second);
    objects.erase(it);
}

std::vector<uint8_t>
ObjectStore::serialize(uint64_t id) const
{
    const StoredObject &obj = get(id);
    const osim::AddressSpace &space = kernel.process(pid_).space();
    switch (obj.kind) {
      case ObjKind::Mat:
        return matToBytes(space, obj.mat);
      case ObjKind::Tensor:
        return tensorToBytes(space, obj.tensor);
      case ObjKind::Bytes: {
        std::vector<uint8_t> out(obj.byteLen);
        space.read(obj.addr, out.data(), obj.byteLen);
        return out;
      }
    }
    util::panic("ObjectStore::serialize: bad kind");
}

void
ObjectStore::materialize(uint64_t id, ObjKind kind,
                         const std::vector<uint8_t> &bytes,
                         const std::string &label)
{
    osim::AddressSpace &space = kernel.process(pid_).space();
    StoredObject obj;
    obj.kind = kind;
    obj.label = label;
    switch (kind) {
      case ObjKind::Mat:
        obj.mat = matFromBytes(space, bytes, label);
        obj.addr = obj.mat.addr;
        obj.byteLen = obj.mat.byteLen();
        break;
      case ObjKind::Tensor:
        obj.tensor = tensorFromBytes(space, bytes, label);
        obj.addr = obj.tensor.addr;
        obj.byteLen = obj.tensor.byteLen();
        break;
      case ObjKind::Bytes:
        obj.addr = space.alloc(bytes.size() ? bytes.size() : 1,
                               osim::PermRW, label);
        obj.byteLen = bytes.size();
        space.write(obj.addr, bytes.data(), bytes.size());
        break;
    }
    // A re-materialize moves the object to a fresh buffer; the stale
    // one stops resolving to this id and dies with its last holder.
    auto old = objects.find(id);
    if (old != objects.end())
        untrack(id, old->second);
    StoredObject &stored = objects[id] = std::move(obj);
    track(id, stored);
    markDirty(stored);
}

std::vector<uint64_t>
ObjectStore::ids() const
{
    std::vector<uint64_t> out;
    out.reserve(objects.size());
    for (const auto &[id, obj] : objects)
        out.push_back(id);
    return out;
}

} // namespace freepart::fw
