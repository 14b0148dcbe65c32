#ifndef REMEDY_DATA_MMAP_FILE_H_
#define REMEDY_DATA_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace remedy {

// Read-only memory mapping of one file — the substrate of the out-of-core
// shard store (see ColumnarShardStore::OpenSpilled). The mapping is shared
// and never written, so pages are clean: the kernel drops and re-faults
// them from the file at will, which is what lets a store larger than RAM
// stream through the store scan at a bounded resident set.
//
// The Advise* calls wrap madvise with page alignment handled here; they are
// hints, so failures are ignored by design (counting stays correct, only
// the paging pattern degrades).
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  // Maps `path` read-only. kIoError when the file cannot be opened, sized,
  // or mapped (including zero-length files, which POSIX mmap rejects).
  static StatusOr<MmapFile> Map(const std::string& path);

  bool mapped() const { return data_ != nullptr; }
  const uint8_t* data() const { return static_cast<const uint8_t*>(data_); }
  size_t size() const { return size_; }

  // MADV_SEQUENTIAL over [offset, offset + length): aggressive readahead
  // for the streaming tally pass over one shard.
  void AdviseSequential(size_t offset, size_t length) const;
  // MADV_DONTNEED over [offset, offset + length): drops the (clean) pages
  // once a shard's tally is folded, bounding resident memory to the shards
  // in flight instead of the whole store.
  void AdviseDontNeed(size_t offset, size_t length) const;

  // Unmaps now (also done by the destructor); mapped() becomes false.
  void Unmap();

 private:
  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace remedy

#endif  // REMEDY_DATA_MMAP_FILE_H_
