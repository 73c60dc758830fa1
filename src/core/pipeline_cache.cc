#include "core/pipeline_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "core/counter_table.h"
#include "lang/struct_hash.h"
#include "util/fault.h"
#include "util/proc.h"
#include "util/strings.h"

namespace hornsafe {
namespace {

constexpr char kDiskMagic[4] = {'H', 'S', 'V', 'C'};
constexpr char kManifestName[] = "MANIFEST";
/// Manifest temp files deliberately avoid the ".tmp." marker so the
/// entry-tmp sweep never races a manifest publish; they get their own
/// "MANIFEST.new." sweep rule.
constexpr char kManifestTmpPrefix[] = "MANIFEST.new.";

/// Seconds since `p` was last written (0 on stat failure — a file we
/// cannot stat is treated as brand new and left alone).
int64_t FileAgeSeconds(const std::filesystem::path& p) {
  std::error_code ec;
  auto mtime = std::filesystem::last_write_time(p, ec);
  if (ec) return 0;
  auto now = std::filesystem::file_time_type::clock::now();
  return std::chrono::duration_cast<std::chrono::seconds>(now - mtime)
      .count();
}

bool IsTmpFileName(const std::string& name) {
  return name.find(".tmp.") != std::string::npos ||
         name.rfind(kManifestTmpPrefix, 0) == 0;
}

bool IsEntryFileName(const std::string& name) {
  return name.size() > 4 &&
         name.compare(name.size() - 4, 4, ".hsv") == 0 &&
         !IsTmpFileName(name);
}

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool ReadU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + i]))
          << (8 * i);
  }
  *pos += 4;
  return true;
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + i]))
          << (8 * i);
  }
  *pos += 8;
  return true;
}

/// Raw FNV-1a over the serialized payload (not MixHash-finalized; this
/// is an integrity check, not an addressing hash).
uint64_t Checksum(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string CacheKey::ToHex() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

PipelineCache::PipelineCache(Options options)
    : options_(std::move(options)) {
  if (options_.max_entries == 0) options_.max_entries = 1;
  if (options_.disk_retries < 0) options_.disk_retries = 0;
  shard_count_ =
      options_.max_entries >= kVerdictShards * 64 ? kVerdictShards : 1;
  shard_capacity_ =
      (options_.max_entries + shard_count_ - 1) / shard_count_;
  if (options_.tmp_grace_seconds < 0) options_.tmp_grace_seconds = 0;
  if (!options_.dir.empty()) OpenDiskTier();
}

std::string PipelineCache::ShardDirOf(const std::string& dir,
                                      const CacheKey& key) {
  static const char kHex[] = "0123456789abcdef";
  char digit = kHex[key.lo & (kDiskShards - 1)];
  return StrCat(dir, "/shard-", std::string(1, digit));
}

std::string PipelineCache::EntryPath(const std::string& dir,
                                     const CacheKey& key) {
  return StrCat(ShardDirOf(dir, key), "/", key.ToHex(), ".hsv");
}

uint64_t PipelineCache::SweepTmpFilesLocked(const std::string& shard_dir) {
  namespace fs = std::filesystem;
  uint64_t swept = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (!IsTmpFileName(name)) continue;
    // Grace window: a tmp file younger than this may belong to a
    // writer that raced us to the shard lease (acquired it after our
    // try-lock, or is between create and lease in a crashed-and-
    // restarted path). Past the window, a tmp under a lease we hold is
    // provably abandoned.
    if (FileAgeSeconds(entry.path()) < options_.tmp_grace_seconds) continue;
    fs::remove(entry.path(), ec);
    if (!ec) ++swept;
  }
  return swept;
}

void PipelineCache::OpenDiskTier() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) return;  // no disk tier this run; stores will retry creation

  uint64_t migrated = 0;
  uint64_t swept = 0;
  // Migrate pre-shard flat-layout entries ("<dir>/<32 hex>-....hsv")
  // into their shard so old caches stay warm across the layout change;
  // top-level tmp and manifest-tmp leftovers age out under the grace
  // window (no shard lease exists for the legacy layout).
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (IsTmpFileName(name)) {
      if (FileAgeSeconds(entry.path()) >= options_.tmp_grace_seconds) {
        fs::remove(entry.path(), ec);
        if (!ec) ++swept;
      }
      continue;
    }
    // "<16 hex>-<16 hex>.hsv" — the shard digit is the last hex char
    // of `lo` (EntryPath uses lo's low bits).
    if (!IsEntryFileName(name) || name.size() != 37 || name[16] != '-') {
      continue;
    }
    char digit = name[32];
    bool hex = (digit >= '0' && digit <= '9') || (digit >= 'a' && digit <= 'f');
    if (!hex) continue;
    std::string shard_dir =
        StrCat(options_.dir, "/shard-", std::string(1, digit));
    fs::create_directories(shard_dir, ec);
    fs::rename(entry.path(), fs::path(shard_dir) / name, ec);
    if (!ec) ++migrated;
  }

  RecoverManifest();

  // Per-shard crash recovery, under each shard's write lease. A busy
  // lease means a live writer owns the shard right now — its tmp files
  // are live and its lease record is current, so skip it entirely
  // (this is what makes the open-time sweep safe against concurrent
  // writers).
  uint64_t stale = 0;
  static const char kHex[] = "0123456789abcdef";
  for (size_t s = 0; s < kDiskShards; ++s) {
    std::string shard_dir =
        StrCat(options_.dir, "/shard-", std::string(1, kHex[s]));
    fs::create_directories(shard_dir, ec);
    auto lock_or = FileLock::TryAcquire(StrCat(shard_dir, "/.lease"));
    if (!lock_or.ok() || !lock_or.value().held()) continue;
    FileLock lease = std::move(lock_or.value());
    // A store clears its lease record before releasing; a non-empty
    // record under a lease we could take is a writer that died
    // mid-store. The pid + boot-id check guards against the one
    // ambiguity flock cannot see: a record whose pid was recycled by
    // an unrelated live process.
    std::string record = lease.ReadRecord();
    if (!record.empty() && LeaseRecordStale(record)) {
      lease.WriteRecord("");
      ++stale;
    }
    swept += SweepTmpFilesLocked(shard_dir);
  }

  std::lock_guard<std::mutex> lock(misc_mu_);
  misc_stats_.legacy_entries_migrated += migrated;
  misc_stats_.tmp_files_swept += swept;
  misc_stats_.stale_leases_recovered += stale;
}

void PipelineCache::RecoverManifest() {
  namespace fs = std::filesystem;
  std::string path = StrCat(options_.dir, "/", kManifestName);
  std::string data;
  {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
      char buf[256];
      for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        data.append(buf, static_cast<size_t>(n));
        if (data.size() > 4096) break;
      }
      ::close(fd);
    }
  }

  // "HSMF 1 gen <G>\nsum <16 hex>\n" — the sum line is FNV over the
  // first line, so a torn or bit-flipped manifest is detected, not
  // trusted.
  uint64_t generation = 0;
  bool parsed = false;
  if (!data.empty()) {
    size_t nl = data.find('\n');
    if (nl != std::string::npos && data.rfind("HSMF 1 gen ", 0) == 0) {
      std::string line = data.substr(0, nl);
      uint64_t g = 0;
      bool num_ok = line.size() > 11;
      for (size_t i = 11; i < line.size() && num_ok; ++i) {
        if (line[i] < '0' || line[i] > '9') num_ok = false;
        else g = g * 10 + static_cast<uint64_t>(line[i] - '0');
      }
      char want[32];
      std::snprintf(want, sizeof(want), "sum %016llx",
                    static_cast<unsigned long long>(Checksum(line)));
      std::string rest = data.substr(nl + 1);
      if (num_ok && rest.rfind(want, 0) == 0) {
        generation = g;
        parsed = true;
      }
    }
  }

  if (parsed) {
    std::lock_guard<std::mutex> lock(misc_mu_);
    manifest_generation_ = generation;
    misc_stats_.manifest_generation = generation;
    return;
  }

  // Missing or corrupt: roll back to a fresh generation. Election via
  // the compaction lock keeps concurrent openers from stamping over
  // each other; losing the election just means the winner repairs it.
  bool corrupt = !data.empty();
  auto lock_or = FileLock::TryAcquire(StrCat(options_.dir, "/.compact.lock"));
  bool wrote = false;
  if (lock_or.ok() && lock_or.value().held()) {
    wrote = WriteManifestFile(1);
  }
  std::lock_guard<std::mutex> lock(misc_mu_);
  manifest_generation_ = 1;
  misc_stats_.manifest_generation = 1;
  if (corrupt && wrote) ++misc_stats_.manifest_rollbacks;
}

bool PipelineCache::WriteManifestFile(uint64_t generation) {
  std::string line = StrCat("HSMF 1 gen ", generation);
  char sum[32];
  std::snprintf(sum, sizeof(sum), "sum %016llx",
                static_cast<unsigned long long>(Checksum(line)));
  std::string data = StrCat(line, "\n", sum, "\n");
  std::string path = StrCat(options_.dir, "/", kManifestName);
  std::string tmp =
      StrCat(options_.dir, "/", kManifestTmpPrefix, ::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return false;
  size_t off = 0;
  bool ok = true;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  ::close(fd);
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) ::unlink(tmp.c_str());
  return ok;
}

std::optional<CachedVerdict> PipelineCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.counts.verdict_hits;
      return it->second->verdict;
    }
  }
  if (!options_.dir.empty()) {
    std::optional<CachedVerdict> from_disk = DiskLookup(key);
    if (from_disk) {
      std::lock_guard<std::mutex> lock(shard.mu);
      ++shard.counts.verdict_hits;
      if (shard.index.find(key) == shard.index.end()) {
        InsertLocked(shard, key, *from_disk);
      }
      return from_disk;
    }
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  ++shard.counts.verdict_misses;
  return std::nullopt;
}

void PipelineCache::Store(const CacheKey& key, const CachedVerdict& verdict) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->verdict = verdict;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      InsertLocked(shard, key, verdict);
      ++shard.counts.verdict_insertions;
    }
  }
  if (!options_.dir.empty()) DiskStore(key, verdict);
}

void PipelineCache::InsertLocked(Shard& shard, const CacheKey& key,
                                 const CachedVerdict& verdict) {
  shard.lru.push_front({key, verdict});
  shard.index[key] = shard.lru.begin();
  while (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.counts.verdict_evictions;
  }
}

std::string PipelineCache::DiskPath(const CacheKey& key) const {
  return EntryPath(options_.dir, key);
}

void PipelineCache::RetryBackoff(int attempt) {
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.disk_retry_attempts;
  }
  if (options_.retry_backoff_us == 0) return;
  uint64_t us = static_cast<uint64_t>(options_.retry_backoff_us)
                << (attempt > 0 ? attempt - 1 : 0);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

std::optional<CachedVerdict> PipelineCache::DiskLookup(const CacheKey& key) {
  std::string path = DiskPath(key);
  FaultInjector& faults = FaultInjector::Global();
  std::string data;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) RetryBackoff(attempt);
    faults.MaybeCrash();
    // EIO is transient: retry with backoff, then degrade to a miss.
    if (faults.ShouldInject(FaultKind::kReadError)) {
      if (attempt < options_.disk_retries) continue;
      std::lock_guard<std::mutex> lock(misc_mu_);
      ++misc_stats_.disk_read_failures;
      return std::nullopt;
    }
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) {
        std::lock_guard<std::mutex> lock(misc_mu_);
        ++misc_stats_.disk_misses;
        return std::nullopt;
      }
      if (attempt < options_.disk_retries) continue;
      std::lock_guard<std::mutex> lock(misc_mu_);
      ++misc_stats_.disk_read_failures;
      return std::nullopt;
    }
    data.clear();
    char buf[4096];
    bool read_ok = true;
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;
        read_ok = false;
        break;
      }
      data.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    if (read_ok) break;
    if (attempt >= options_.disk_retries) {
      std::lock_guard<std::mutex> lock(misc_mu_);
      ++misc_stats_.disk_read_failures;
      return std::nullopt;
    }
  }
  // Media corruption: flip one bit of what we read back. The checksum
  // (or a structural check) below catches it; the entry is unlinked so
  // the next store repairs it.
  if (faults.ShouldInject(FaultKind::kBitFlip)) faults.CorruptOneBit(&data);

  auto corrupt = [&]() -> std::optional<CachedVerdict> {
    // A bad entry is just a miss; drop the file so it is not re-read.
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.disk_corrupt;
    return std::nullopt;
  };

  if (data.size() < sizeof(kDiskMagic) + 4 + 8 ||
      std::memcmp(data.data(), kDiskMagic, sizeof(kDiskMagic)) != 0) {
    return corrupt();
  }
  std::string_view payload(data.data() + sizeof(kDiskMagic),
                           data.size() - sizeof(kDiskMagic) - 8);
  size_t pos = sizeof(kDiskMagic);
  uint32_t version = 0;
  if (!ReadU32(data, &pos, &version) || version != kDiskFormatVersion) {
    return corrupt();
  }
  uint64_t stored_hi = 0, stored_lo = 0;
  if (!ReadU64(data, &pos, &stored_hi) || !ReadU64(data, &pos, &stored_lo) ||
      stored_hi != key.hi || stored_lo != key.lo) {
    return corrupt();
  }
  CachedVerdict out;
  uint32_t verdict_raw = 0, explanation_len = 0;
  if (!ReadU32(data, &pos, &verdict_raw) || verdict_raw > 2 ||
      !ReadU64(data, &pos, &out.steps) ||
      !ReadU64(data, &pos, &out.graphs_checked) ||
      !ReadU64(data, &pos, &out.memo_hits) ||
      !ReadU64(data, &pos, &out.memo_misses) ||
      !ReadU64(data, &pos, &out.scc_short_circuits) ||
      !ReadU32(data, &pos, &explanation_len) ||
      pos + explanation_len + 8 != data.size()) {
    return corrupt();
  }
  out.verdict = static_cast<Safety>(verdict_raw);
  out.explanation = data.substr(pos, explanation_len);
  pos += explanation_len;
  uint64_t stored_sum = 0;
  if (!ReadU64(data, &pos, &stored_sum) || stored_sum != Checksum(payload)) {
    return corrupt();
  }
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.disk_hits;
  }
  return out;
}

void PipelineCache::DiskStore(const CacheKey& key,
                              const CachedVerdict& verdict) {
  std::error_code ec;
  std::string shard_dir = ShardDirOf(options_.dir, key);
  std::filesystem::create_directories(shard_dir, ec);

  std::string payload;
  AppendU32(&payload, kDiskFormatVersion);
  AppendU64(&payload, key.hi);
  AppendU64(&payload, key.lo);
  AppendU32(&payload, static_cast<uint32_t>(verdict.verdict));
  AppendU64(&payload, verdict.steps);
  AppendU64(&payload, verdict.graphs_checked);
  AppendU64(&payload, verdict.memo_hits);
  AppendU64(&payload, verdict.memo_misses);
  AppendU64(&payload, verdict.scc_short_circuits);
  AppendU32(&payload, static_cast<uint32_t>(verdict.explanation.size()));
  payload += verdict.explanation;

  std::string data(kDiskMagic, sizeof(kDiskMagic));
  data += payload;
  AppendU64(&data, Checksum(payload));

  // Write-temp-fsync-rename so a concurrent reader (or a crash) never
  // sees a torn entry. Transient failures (EIO, short write) retry
  // with backoff; ENOSPC downgrades the store to memory-only.
  std::string path = DiskPath(key);
  std::string tmp = StrCat(path, ".tmp.", ::getpid(), ".",
                           tmp_seq_.fetch_add(1, std::memory_order_relaxed));
  FaultInjector& faults = FaultInjector::Global();

  faults.MaybeCrash();
  // The shard write lease: held (blocking flock) for the whole store so
  // sweepers and compactors know this shard has a live writer — a tmp
  // file only ever exists while its writer holds the lease. The kernel
  // drops the flock if we die; the pid+boot record we leave behind is
  // what the next opener's stale-lease recovery reads. On every normal
  // exit from this function the record is cleared before release, so a
  // surviving record *is* the crash evidence.
  auto lease_or = FileLock::Acquire(StrCat(shard_dir, "/.lease"));
  if (!lease_or.ok()) {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.disk_write_failures;
    return;
  }
  FileLock lease = std::move(lease_or.value());
  lease.WriteRecord(FormatLeaseRecord(::getpid(), BootId()));
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.lease_acquisitions;
  }
  struct ClearRecord {
    FileLock* lease;
    bool steal;
    ~ClearRecord() {
      // Normal exit erases the crash evidence; an injected steal leaves
      // a dead foreign holder's record in its place (modeling a
      // half-recovered crash or clock-skewed NFS client), which the
      // next opener must classify stale and absorb.
      lease->WriteRecord(steal ? FormatLeaseRecord(1 << 30, "stolen-boot")
                               : "");
    }
  } clear_record{&lease, faults.ShouldInject(FaultKind::kLeaseSteal)};

  auto skip_full_disk = [&]() {
    ::unlink(tmp.c_str());
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.disk_write_skips;
  };
  auto fail = [&]() {
    ::unlink(tmp.c_str());
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.disk_write_failures;
  };

  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) RetryBackoff(attempt);
    // One ENOSPC decision per attempt, spread uniformly over the three
    // syscalls that can hit a full disk (open / fsync / rename), so
    // the fault is visible in exactly one counter (disk_write_skips)
    // no matter where it lands. -1 = not injected this attempt.
    int enospc_at =
        faults.ShouldInject(FaultKind::kEnospc)
            ? static_cast<int>(faults.PickPoint(3))
            : -1;
    faults.MaybeCrash();
    if (enospc_at == 0) return skip_full_disk();
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      if (errno == ENOSPC || errno == EDQUOT) return skip_full_disk();
      if (attempt < options_.disk_retries) continue;
      return fail();
    }
    // Decide how much of the payload "reaches" the file: all of it, or
    // an injected strict prefix (short write), or nothing (EIO).
    size_t want = data.size();
    bool injected_failure = false;
    if (faults.ShouldInject(FaultKind::kWriteError)) {
      want = 0;
      injected_failure = true;
    } else if (faults.ShouldInject(FaultKind::kShortWrite)) {
      want = faults.TornLength(data.size());
      injected_failure = true;
    }
    bool io_ok = true;
    bool full_disk = false;
    size_t off = 0;
    while (off < want) {
      ssize_t n = ::write(fd, data.data() + off, want - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        full_disk = errno == ENOSPC || errno == EDQUOT;
        io_ok = false;
        break;
      }
      off += static_cast<size_t>(n);
    }
    if (io_ok && injected_failure) io_ok = false;
    faults.MaybeCrash();
    // Flush file contents before the rename publishes them — without
    // this a crash after rename can leave a successfully named entry
    // with zero-filled pages on journaled filesystems. fsync is also
    // where delayed-allocation filesystems first report a full disk,
    // so ENOSPC here (real or injected) is a non-fatal skip, not a
    // write failure.
    if (io_ok) {
      if (enospc_at == 1) {
        io_ok = false;
        full_disk = true;
      } else if (::fsync(fd) != 0) {
        full_disk = errno == ENOSPC || errno == EDQUOT;
        io_ok = false;
      }
    }
    ::close(fd);
    if (!io_ok) {
      if (full_disk) return skip_full_disk();
      ::unlink(tmp.c_str());
      if (attempt < options_.disk_retries) continue;
      return fail();
    }
    // A torn rename models a crash on a filesystem that reorders
    // metadata: the destination name appears but holds a truncated
    // payload. The writer cannot observe this — the entry is published
    // and the *reader's* checksum must catch it (then self-heal by
    // unlink).
    if (faults.ShouldInject(FaultKind::kTornRename)) {
      ::truncate(tmp.c_str(), static_cast<off_t>(
          faults.TornLength(data.size())));
    }
    faults.MaybeCrash();
    if (enospc_at == 2) return skip_full_disk();
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      if (errno == ENOSPC || errno == EDQUOT) return skip_full_disk();
      ::unlink(tmp.c_str());
      if (attempt < options_.disk_retries) continue;
      return fail();
    }
    faults.MaybeCrash();
    return;
  }
}

Result<PipelineCache::CompactionResult> PipelineCache::Compact(
    const CompactionOptions& bounds) {
  namespace fs = std::filesystem;
  if (options_.dir.empty()) {
    return Status::NotFound("cache has no disk tier");
  }
  CompactionResult res;
  FaultInjector& faults = FaultInjector::Global();

  // Single-writer election: whoever holds .compact.lock runs the pass;
  // everyone else reports a clean skip. The lock dies with the holder,
  // so a killed compactor never blocks the next one.
  auto lock_or = FileLock::TryAcquire(StrCat(options_.dir, "/.compact.lock"));
  if (!lock_or.ok()) return lock_or.status();
  if (!lock_or.value().held()) {
    std::lock_guard<std::mutex> lock(misc_mu_);
    ++misc_stats_.compactions_skipped;
    res.ran = false;
    res.generation = manifest_generation_;
    return res;
  }
  FileLock compact_lock = std::move(lock_or.value());
  compact_lock.WriteRecord(FormatLeaseRecord(::getpid(), BootId()));

  // Collect entries shard by shard. Tmp sweeping needs the shard lease
  // (same rule as open: never touch a live writer's tmp); entry
  // unlinks do not — rename-over and unlink of a published entry are
  // both atomic, and a reader that loses the race re-derives the
  // verdict (a miss, never a torn read).
  struct Entry {
    std::string path;
    uint64_t size;
    int64_t age_seconds;
  };
  std::vector<Entry> entries;
  uint64_t total_bytes = 0;
  static const char kHex[] = "0123456789abcdef";
  std::error_code ec;
  for (size_t s = 0; s < kDiskShards; ++s) {
    std::string shard_dir =
        StrCat(options_.dir, "/shard-", std::string(1, kHex[s]));
    auto shard_lock_or = FileLock::TryAcquire(StrCat(shard_dir, "/.lease"));
    if (shard_lock_or.ok() && shard_lock_or.value().held()) {
      std::string record = shard_lock_or.value().ReadRecord();
      if (!record.empty() && LeaseRecordStale(record)) {
        shard_lock_or.value().WriteRecord("");
        std::lock_guard<std::mutex> lock(misc_mu_);
        ++misc_stats_.stale_leases_recovered;
      }
      res.tmp_files_swept += SweepTmpFilesLocked(shard_dir);
    }
    for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      std::string name = entry.path().filename().string();
      if (!IsEntryFileName(name)) continue;
      uint64_t size = entry.file_size(ec);
      if (ec) size = 0;
      entries.push_back(
          {entry.path().string(), size, FileAgeSeconds(entry.path())});
      total_bytes += size;
    }
  }
  res.entries_scanned = entries.size();

  // Oldest-first victim order; age-expired entries go unconditionally,
  // then the tail until the size bound holds. Unlinks are idempotent —
  // a compactor killed between any two of them leaves a smaller tier
  // the next pass finishes shrinking.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.age_seconds > b.age_seconds;
            });
  for (const Entry& entry : entries) {
    bool expired = bounds.max_age_seconds > 0 &&
                   entry.age_seconds >= bounds.max_age_seconds;
    bool over_budget =
        bounds.max_bytes > 0 && total_bytes > bounds.max_bytes;
    if (!expired && !over_budget) continue;
    faults.MaybeCrash();
    fs::remove(entry.path, ec);
    if (ec) continue;
    ++res.entries_removed;
    res.bytes_removed += entry.size;
    total_bytes -= entry.size;
  }

  // The generation bump is the pass's commit record: written last, via
  // temp+rename, so a crash anywhere above leaves the old generation
  // and an already-valid (just partially compacted) tier.
  faults.MaybeCrash();
  uint64_t next_gen;
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    next_gen = manifest_generation_ + 1;
  }
  bool wrote = WriteManifestFile(next_gen);
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    if (wrote) {
      manifest_generation_ = next_gen;
      misc_stats_.manifest_generation = next_gen;
    }
    ++misc_stats_.compactions_run;
    misc_stats_.compaction_entries_removed += res.entries_removed;
    misc_stats_.compaction_bytes_removed += res.bytes_removed;
    misc_stats_.tmp_files_swept += res.tmp_files_swept;
    res.generation = manifest_generation_;
  }
  compact_lock.WriteRecord("");
  res.ran = true;
  return res;
}

Result<PipelineCache::CompactionResult> PipelineCache::CompactDir(
    const std::string& dir, const CompactionOptions& bounds) {
  Options options;
  options.max_entries = 64;  // tool handle: the memory tier is unused
  options.dir = dir;
  // Opening runs the full crash-recovery pass first — exactly what a
  // standalone GC tool wants.
  PipelineCache cache(options);
  return cache.Compact(bounds);
}

std::optional<PipelineCache::CanonArtifact>
PipelineCache::LookupCanonicalization(uint64_t strict_hash,
                                      uint64_t options_bits) {
  // Artifact tiers are probed once per pipeline build (concurrent
  // ephemeral builds share this cache), so the whole scan — splice
  // included — runs under misc_mu_; returning a copy (two words plus
  // the display-var ids) keeps the caller off the list after unlock.
  CacheKey key{MixHash(strict_hash ^ 0x63616e6fULL), options_bits};
  std::lock_guard<std::mutex> lock(misc_mu_);
  for (auto it = canon_.begin(); it != canon_.end(); ++it) {
    if (it->first == key) {
      canon_.splice(canon_.begin(), canon_, it);
      ++misc_stats_.canon_hits;
      return canon_.front().second;
    }
  }
  ++misc_stats_.canon_misses;
  return std::nullopt;
}

void PipelineCache::StoreCanonicalization(uint64_t strict_hash,
                                          uint64_t options_bits,
                                          CanonArtifact artifact) {
  if (artifact.canon == nullptr) return;
  CacheKey key{MixHash(strict_hash ^ 0x63616e6fULL), options_bits};
  std::lock_guard<std::mutex> lock(misc_mu_);
  canon_.emplace_front(key, std::move(artifact));
  while (canon_.size() > kMaxArtifacts) canon_.pop_back();
}

std::optional<std::vector<bool>> PipelineCache::LookupEmptiness(
    uint64_t strict_hash) {
  std::lock_guard<std::mutex> lock(misc_mu_);
  for (auto it = emptiness_.begin(); it != emptiness_.end(); ++it) {
    if (it->first == strict_hash) {
      emptiness_.splice(emptiness_.begin(), emptiness_, it);
      ++misc_stats_.emptiness_hits;
      return emptiness_.front().second;
    }
  }
  ++misc_stats_.emptiness_misses;
  return std::nullopt;
}

void PipelineCache::StoreEmptiness(uint64_t strict_hash,
                                   const std::vector<bool>& bits) {
  std::lock_guard<std::mutex> lock(misc_mu_);
  emptiness_.emplace_front(strict_hash, bits);
  while (emptiness_.size() > kMaxArtifacts) emptiness_.pop_back();
}

CacheKey PipelineCache::SegmentKey(uint64_t component_hash,
                                   uint32_t mode_bits) {
  uint64_t lo = CombineHash(component_hash, mode_bits);
  uint64_t hi = CombineHash(MixHash(component_hash ^ 0x7365676d656e7431ULL),
                            mode_bits + 1);
  return {hi, lo};
}

std::shared_ptr<const NodeTableSegment> PipelineCache::LookupSegment(
    const CacheKey& key) {
  std::lock_guard<std::mutex> lock(segment_mu_);
  auto it = segment_index_.find(key);
  if (it == segment_index_.end()) {
    ++segment_stats_.segment_misses;
    return nullptr;
  }
  segments_.splice(segments_.begin(), segments_, it->second);
  ++segment_stats_.segment_hits;
  return segments_.front().second;
}

std::shared_ptr<const NodeTableSegment> PipelineCache::StoreSegment(
    const CacheKey& key, std::shared_ptr<const NodeTableSegment> segment) {
  if (segment == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(segment_mu_);
  auto it = segment_index_.find(key);
  if (it != segment_index_.end()) {
    // Content-addressed: a racing builder encoded an equivalent span,
    // so keep the incumbent — the caller adopts it, which is what lets
    // consecutive snapshots share one allocation.
    segments_.splice(segments_.begin(), segments_, it->second);
    return segments_.front().second;
  }
  segments_.emplace_front(key, std::move(segment));
  segment_index_[key] = segments_.begin();
  ++segment_stats_.segment_insertions;
  while (segments_.size() > kMaxSegmentEntries) {
    segment_index_.erase(segments_.back().first);
    segments_.pop_back();
    ++segment_stats_.segment_evictions;
  }
  return segments_.front().second;
}

void PipelineCache::NoteInvalidatedCones(size_t count) {
  std::lock_guard<std::mutex> lock(misc_mu_);
  misc_stats_.cones_invalidated += count;
}

PipelineCacheStats PipelineCache::stats() const {
  PipelineCacheStats out;
  {
    std::lock_guard<std::mutex> lock(misc_mu_);
    out = misc_stats_;
  }
  {
    std::lock_guard<std::mutex> lock(segment_mu_);
    Merge(out, segment_stats_);
  }
  {
    FdClosureCache::Stats fd = fd_closures_.stats();
    out.fd_index_hits = fd.hits;
    out.fd_index_misses = fd.misses;
  }
  {
    PredicateHashMemo::Stats ph = pred_hashes_.stats();
    out.pred_hash_hits = ph.hits;
    out.pred_hash_misses = ph.misses;
  }
  // Per-shard tallies are exact (every bump happens under the shard
  // lock); the sum is a consistent-enough snapshot — a concurrent
  // lookup may land before or after it, same as with one global lock.
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    Merge(out, shard.counts);
  }
  return out;
}

size_t PipelineCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace hornsafe
