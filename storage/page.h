// Fixed-size page format for the disk-resident FITing-Tree (paper Sec 5's
// page-granular cost model made literal): every on-disk page carries a
// 16-byte typed header whose CRC32 covers the rest of the page, so torn
// writes and bit rot are detected at read time rather than silently served.

#ifndef FITREE_STORAGE_PAGE_H_
#define FITREE_STORAGE_PAGE_H_

#include <cstdlib>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace fitree::storage {

inline constexpr size_t kDefaultPageBytes = 4096;
// Small enough that tests can force multi-page files from tiny datasets,
// large enough that every page type fits its header plus one record.
inline constexpr size_t kMinPageBytes = 128;
// Version 2 (ISSUE 10): ping-pong meta slots in pages 0-1 and per-segment
// leaf-page addressing, enabling crash-safe append-and-republish
// compaction. Version-1 files are rejected at Open.
inline constexpr uint16_t kPageFormatVersion = 2;

// O_DIRECT requires the destination buffer, the file offset, and the
// transfer size to be multiples of the device's logical block size.
// Aligning every page buffer to 4096 satisfies any block size in practice.
inline constexpr size_t kDirectIoAlignment = 4096;

enum class PageType : uint16_t {
  kMeta = 1,          // page 0: file-wide metadata (SegmentFileMeta)
  kSegmentTable = 2,  // packed segment records
  kLeaf = 3,          // sorted key/payload entries
};

struct PageHeader {
  uint32_t checksum;  // CRC32 of bytes [4, page_bytes)
  uint16_t type;      // PageType
  uint16_t version;   // kPageFormatVersion
  uint32_t page_id;   // file-global page number, guards misdirected reads
  uint32_t count;     // records stored in this page
};
static_assert(sizeof(PageHeader) == 16);
inline constexpr size_t kPageHeaderBytes = sizeof(PageHeader);

namespace detail {

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// kCrc32Tables[0] is the classic byte-at-a-time table, and table k maps a
// byte to its CRC contribution k bytes further back in the stream, so one
// step folds 8 input bytes with 8 independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace detail

// Standard CRC-32 (IEEE, reflected), computed 8 bytes per step. Same
// polynomial and result as the byte-at-a-time form, so checksums stored
// by either verify under the other.
inline uint32_t Crc32(const void* data, size_t n) {
  // The word loads below put the first stream byte in the low bits.
  static_assert(std::endian::native == std::endian::little,
                "slicing-by-8 Crc32 assumes little-endian word loads");
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// Unaligned-safe record access inside raw page buffers.
template <typename T>
T LoadAs(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void StoreAs(std::byte* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

// Stamps the header and checksum onto a fully-populated page buffer. The
// caller must have zero-initialized the buffer before filling it so struct
// padding and the unused tail hash deterministically.
inline void SealPage(std::byte* page, size_t page_bytes, PageType type,
                     uint32_t page_id, uint32_t count) {
  PageHeader h{};
  h.checksum = 0;
  h.type = static_cast<uint16_t>(type);
  h.version = kPageFormatVersion;
  h.page_id = page_id;
  h.count = count;
  StoreAs(page, h);
  StoreAs(page, Crc32(page + sizeof(uint32_t), page_bytes - sizeof(uint32_t)));
}

// Returns false when the checksum, version, type, or page id disagree with
// what the caller expected to read.
inline bool VerifyPage(const std::byte* page, size_t page_bytes,
                       PageType expected_type, uint32_t expected_id,
                       PageHeader* out = nullptr) {
  const PageHeader h = LoadAs<PageHeader>(page);
  if (h.checksum !=
      Crc32(page + sizeof(uint32_t), page_bytes - sizeof(uint32_t))) {
    return false;
  }
  if (h.version != kPageFormatVersion) return false;
  if (h.type != static_cast<uint16_t>(expected_type)) return false;
  if (h.page_id != expected_id) return false;
  if (out != nullptr) *out = h;
  return true;
}

// One entry of a batched page read: filled in by the caller (page id +
// destination), answered by the source (ok).
struct PageReadRequest {
  uint32_t page_id = 0;
  std::byte* out = nullptr;
  bool ok = false;
};

// Source of verified page reads for the buffer pool: implemented by
// SegmentFileReader (pread + VerifyPage) and by in-memory fakes in tests.
class PageSource {
 public:
  virtual ~PageSource() = default;

  // Fills `out` (page_bytes() long) with page `page_id`. Returns false on
  // I/O failure or page verification failure; `out` is then unspecified.
  virtual bool ReadPageInto(uint32_t page_id, std::byte* out) = 0;

  // Batched form: resolves all `n` requests, setting each request's `ok`.
  // The base implementation reads serially; SegmentFileReader overrides it
  // to submit every read before waiting on any (storage/async_io.h), which
  // is what lets a batch of independent lookups overlap their page faults.
  virtual void ReadPagesInto(PageReadRequest* reqs, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      reqs[i].ok = ReadPageInto(reqs[i].page_id, reqs[i].out);
    }
  }
};

// Page-granular aligned allocation (kDirectIoAlignment) so pool frames and
// scratch buffers are always O_DIRECT-legal destinations. Size is rounded
// up to the alignment because aligned_alloc requires it.
class AlignedBytes {
 public:
  AlignedBytes() = default;
  explicit AlignedBytes(size_t n) : size_(n) {
    const size_t rounded =
        (n + kDirectIoAlignment - 1) / kDirectIoAlignment * kDirectIoAlignment;
    data_ = static_cast<std::byte*>(
        std::aligned_alloc(kDirectIoAlignment, rounded));
    std::memset(data_, 0, rounded);
  }
  ~AlignedBytes() { std::free(data_); }

  AlignedBytes(AlignedBytes&& o) noexcept : data_(o.data_), size_(o.size_) {
    o.data_ = nullptr;
    o.size_ = 0;
  }
  AlignedBytes& operator=(AlignedBytes&& o) noexcept {
    if (this != &o) {
      std::free(data_);
      data_ = o.data_;
      size_ = o.size_;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }
  AlignedBytes(const AlignedBytes&) = delete;
  AlignedBytes& operator=(const AlignedBytes&) = delete;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fitree::storage

#endif  // FITREE_STORAGE_PAGE_H_
