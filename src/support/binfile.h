/**
 * @file
 * Building blocks of the checksummed binary files (eval-cache disk
 * entries, the predictor model file, the prediction sample store): an
 * FNV-1a checksum, a byte writer and a bounds-checked byte reader, a
 * whole-file read, an atomic temp-file-and-rename write, and a
 * single-level mkdir. Each format keeps its own header checks (magic,
 * versions, key, size, checksum) at its call site.
 *
 * Numbers are raw host encoding; doubles travel as their bit patterns.
 */

#ifndef NPP_SUPPORT_BINFILE_H
#define NPP_SUPPORT_BINFILE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>

namespace npp {

inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** FNV-1a over `n` bytes, continuing from `h`. */
inline uint64_t
fnvBytes(const void *data, size_t n, uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Appends fixed-width values to `buf`. */
struct ByteWriter
{
    std::string buf;

    void
    u64(uint64_t v)
    {
        buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void
    u32(uint32_t v)
    {
        buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void u8(uint8_t v) { buf.push_back(static_cast<char>(v)); }

    /** u64 length, then the bytes. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.append(s);
    }

    /** @name One encoding per field type
     *  @{ */
    void put(double v) { f64(v); }
    void put(int64_t v) { i64(v); }
    void put(bool v) { u8(v ? 1 : 0); }
    void put(const std::string &v) { str(v); }
    /** @} */
};

/** Bounds-checked reader: any overrun latches ok=false and returns
 *  zeros, so a truncated input can never index out of range. */
struct ByteReader
{
    const char *p;
    size_t n;
    size_t off = 0;
    bool ok = true;

    bool
    take(void *out, size_t count)
    {
        if (!ok || n - off < count) {
            ok = false;
            return false;
        }
        std::memcpy(out, p + off, count);
        off += count;
        return true;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const uint64_t len = u64();
        if (!ok || n - off < len) {
            ok = false;
            return {};
        }
        std::string s(p + off, len);
        off += len;
        return s;
    }

    bool exhausted() const { return ok && off == n; }

    /** @name Inverse of ByteWriter::put
     *  @{ */
    void get(double &v) { v = f64(); }
    void get(int64_t &v) { v = i64(); }
    void get(bool &v) { v = u8() != 0; }
    void get(std::string &v) { v = str(); }
    /** @} */
};

enum class FileRead { Ok, NotFound, Error };

/** Read all of `path` into `out`: NotFound when it cannot be opened,
 *  Error when a read fails. */
FileRead readWholeFile(const std::string &path, std::string *out);

/**
 * Write `parts` back to back to `path` through a temp file in the same
 * directory and an atomic rename, so a concurrent reader sees either no
 * file or a complete one. On failure removes the temp file, warns
 * ("<what>: ...") and returns false.
 */
bool writeFileAtomic(const std::string &path,
                     std::initializer_list<std::string_view> parts,
                     const char *what);

/** Single-level mkdir; an existing directory is fine. Returns false
 *  with errno set when the directory cannot be created. */
bool ensureDir(const std::string &dir);

} // namespace npp

#endif // NPP_SUPPORT_BINFILE_H
