/**
 * @file
 * Dependency-free 64-bit digests of byte buffers. Two hashes live
 * here, each with its own job:
 *
 *  - IntegrityHash: a word-at-a-time hash (four independent 64-bit
 *    lanes over 32-byte stripes, xxHash64-shaped) that checks the
 *    RPC wire trailer (ipc/codec) and checkpoint entries
 *    (core/runtime) at memory speed. Its values are never stored
 *    beyond one frame or one checkpoint, so nothing outside those
 *    two checks depends on them.
 *  - FNV-1a 64-bit: byte-serial and slow, but its values are pinned
 *    elsewhere — app output digests, HashRing placement points, the
 *    lint's crossing matches, device checksums — so it stays for
 *    every use whose number is compared against a recorded one.
 *
 * Both detect accidental corruption only. Neither authenticates:
 * anyone who can rewrite the bytes (a compromised agent on the ring,
 * say) can recompute either digest just as easily.
 */

#ifndef FREEPART_UTIL_CHECKSUM_HH
#define FREEPART_UTIL_CHECKSUM_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace freepart::util {

/** FNV-1a 64-bit offset basis (initial accumulator state). */
constexpr uint64_t kFnv1a64Init = 0xcbf29ce484222325ull;

/**
 * Fold a byte range into a running FNV-1a state. Streaming form for
 * callers that produce bytes in pieces — chaining calls is
 * byte-for-byte equivalent to one fnv1a64() over the concatenation.
 */
inline uint64_t
fnv1a64Accumulate(uint64_t state, const uint8_t *data, size_t len)
{
    for (size_t i = 0; i < len; ++i) {
        state ^= data[i];
        state *= 0x100000001b3ull;
    }
    return state;
}

/** FNV-1a 64-bit hash of a byte range. */
inline uint64_t
fnv1a64(const uint8_t *data, size_t len)
{
    return fnv1a64Accumulate(kFnv1a64Init, data, len);
}

/** FNV-1a 64-bit hash of a byte vector. */
inline uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/**
 * Streaming integrity hash. The input is cut into 32-byte stripes;
 * each stripe's four little-endian 8-byte words feed four independent
 * lanes (multiply-rotate-multiply), so the lanes' multiplies overlap
 * instead of forming one chain per byte. At digest() the lanes merge,
 * the total length is added, the leftover 8-byte words and then
 * single bytes are folded in, and a fixed finalizer mixes the result.
 *
 * Any sequence of append() calls gives the same digest as one
 * append() of the concatenation; a short append only fills the
 * pending stripe.
 */
class IntegrityHash
{
  public:
    IntegrityHash &
    append(const void *data, size_t len)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        total += len;
        if (pendingLen + len < kStripe) {
            if (len > 0)
                std::memcpy(pending + pendingLen, p, len);
            pendingLen += len;
            return *this;
        }
        if (pendingLen > 0) {
            size_t fill = kStripe - pendingLen;
            std::memcpy(pending + pendingLen, p, fill);
            p += fill;
            len -= fill;
            stripes(pending, kStripe);
        }
        size_t whole = len - len % kStripe;
        stripes(p, whole);
        pendingLen = len - whole;
        if (pendingLen > 0)
            std::memcpy(pending, p + whole, pendingLen);
        return *this;
    }

    uint64_t
    digest() const
    {
        uint64_t h = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
                     std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
        for (uint64_t lane : lanes)
            h = (h ^ round(0, lane)) * kPrime1 + kPrime4;
        h += total;
        size_t i = 0;
        for (; i + 8 <= pendingLen; i += 8) {
            h ^= round(0, load64(pending + i));
            h = std::rotl(h, 27) * kPrime1 + kPrime4;
        }
        for (; i < pendingLen; ++i) {
            h ^= pending[i] * kPrime5;
            h = std::rotl(h, 11) * kPrime1;
        }
        h ^= h >> 33;
        h *= kPrime2;
        h ^= h >> 29;
        h *= kPrime3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr size_t kStripe = 32;
    static constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
    static constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
    static constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

    /** Little-endian 8-byte load on any host (one load where the
     *  host is little-endian and the compiler optimizes). */
    static uint64_t
    load64(const uint8_t *p)
    {
        return uint64_t(p[0]) | uint64_t(p[1]) << 8 |
               uint64_t(p[2]) << 16 | uint64_t(p[3]) << 24 |
               uint64_t(p[4]) << 32 | uint64_t(p[5]) << 40 |
               uint64_t(p[6]) << 48 | uint64_t(p[7]) << 56;
    }

    static uint64_t
    round(uint64_t acc, uint64_t word)
    {
        return std::rotl(acc + word * kPrime2, 31) * kPrime1;
    }

    /** Fold whole stripes (len a multiple of kStripe) into the lanes,
     *  kept in locals so the loop runs in registers. */
    void
    stripes(const uint8_t *p, size_t len)
    {
        uint64_t a = lanes[0], b = lanes[1], c = lanes[2], d = lanes[3];
        for (const uint8_t *end = p + len; p < end; p += kStripe) {
            a = round(a, load64(p));
            b = round(b, load64(p + 8));
            c = round(c, load64(p + 16));
            d = round(d, load64(p + 24));
        }
        lanes[0] = a;
        lanes[1] = b;
        lanes[2] = c;
        lanes[3] = d;
    }

    uint64_t lanes[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    uint8_t pending[kStripe] = {};
    size_t pendingLen = 0;
    uint64_t total = 0;
};

/** One-shot integrity hash of a byte range. */
inline uint64_t
integrityHash(const uint8_t *data, size_t len)
{
    return IntegrityHash().append(data, len).digest();
}

/** One-shot integrity hash of a byte vector. */
inline uint64_t
integrityHash(const std::vector<uint8_t> &bytes)
{
    return integrityHash(bytes.data(), bytes.size());
}

} // namespace freepart::util

#endif // FREEPART_UTIL_CHECKSUM_HH
