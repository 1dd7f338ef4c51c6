// Crash-safe, versioned, checksummed snapshot directories for the serving
// engine.
//
// A snapshot is the engine's full serving state on disk — hash functions,
// per-shard CSR segments with their HLL sketches, tombstones, the dataset
// (with its norm cache), and the calibrated cost model — laid out so that a
// restart rehydrates a query-ready engine without recomputing a single
// hash. The directory protocol is the LevelDB-style CURRENT pointer:
//
//   root/
//     CURRENT              "snapshot-000007\n"  (atomic rename, synced)
//     snapshot-000007/
//       MANIFEST           header + EngineOptions + file table (written LAST)
//       functions.bin      one FunctionSet block, shared by all shards
//       dataset.bin        the point container + dense norm cache
//       tombstones.bin     the engine-wide delete bitmap
//       shard-000.bin ...  per-shard sealed segments (CSR + sketches)
//
// Every file is written temp + fsync + rename and carries a trailing
// 64-bit checksum of its payload; the MANIFEST additionally records each
// file's size and checksum. A new snapshot goes into a fresh epoch
// directory and only becomes visible when CURRENT is atomically replaced —
// a crash at ANY point (mid-file, before the manifest, before CURRENT)
// leaves the previous snapshot untouched and loadable. Older epochs are
// garbage-collected only after CURRENT commits.
//
// This header is the representation-independent core: directory protocol,
// manifest schema, checksummed file IO (buffered or mmap). The typed
// save/load logic lives with the structures it serializes
// (ShardedEngine::SaveSnapshot / OpenSnapshot in engine/sharded_engine.h,
// the facade dispatch in engine/search_engine.h).

#ifndef HYBRIDLSH_ENGINE_SNAPSHOT_H_
#define HYBRIDLSH_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/options.h"
#include "util/mmap_file.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace engine {
namespace snapshot {

/// v1: initial format. v2: adds the quantized-verification fields to the
/// config block and an optional int8 mirror sidecar (mirror.bin). Readers
/// accept both: a v1 snapshot restores with the mirror rebuilt from the
/// dataset instead of loaded (kMinFormatVersion tracks the floor).
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr uint32_t kMinFormatVersion = 1;

inline constexpr char kCurrentFile[] = "CURRENT";
inline constexpr char kManifestFile[] = "MANIFEST";
inline constexpr char kFunctionsFile[] = "functions.bin";
inline constexpr char kDatasetFile[] = "dataset.bin";
inline constexpr char kTombstonesFile[] = "tombstones.bin";
/// Optional (v2, dense datasets with quantized_verify): the serialized
/// data::QuantizedMirror sidecar, so a restore skips requantization.
inline constexpr char kMirrorFile[] = "mirror.bin";

/// "shard-000.bin", "shard-001.bin", ...
std::string ShardFileName(size_t shard);

/// Load-time knobs for ShardedEngine::OpenSnapshot / OpenSnapshotEngine.
struct OpenOptions {
  /// Map snapshot files read-only (util/mmap_file.h) instead of reading
  /// them into heap buffers: the dataset and CSR segment payloads are then
  /// paged in by the kernel and copied once, straight from the page cache.
  bool use_mmap = false;
  /// Overrides the pool size recorded in the manifest (0 = keep it) — a
  /// snapshot may be restored on a smaller machine than it was taken on.
  size_t num_threads = 0;
};

/// One data file recorded in the manifest.
struct FileEntry {
  std::string name;
  uint64_t size = 0;      // on-disk size, payload + trailing checksum
  uint64_t checksum = 0;  // checksum of the payload alone
};

/// The snapshot's self-description, written last.
struct Manifest {
  uint32_t format_version = kFormatVersion;
  uint32_t family_tag = 0;    // Family::kFamilyTag of the saved engine
  uint32_t metric_tag = 0;    // data::Metric underlying value
  uint32_t dataset_kind = 0;  // data::kDenseDatasetKind etc.
  uint64_t num_points = 0;    // dataset size at snapshot
  uint64_t initial_n = 0;     // dataset size at the original Build
  /// The engine's options, with the resolved shard count and pool size.
  /// The calibrated (alpha, beta) constants travel in searcher.cost_model.
  EngineOptions config;
  std::vector<FileEntry> files;

  void Serialize(util::ByteWriter* writer) const;
  static util::StatusOr<Manifest> Parse(util::ByteReader* reader);

  /// The manifest entry for `name`, or nullptr.
  const FileEntry* FindFile(const std::string& name) const;
};

/// A snapshot file's verified payload, backed either by an owned buffer or
/// by a read-only mapping (near-zero-copy load path).
class SnapshotBlob {
 public:
  std::span<const uint8_t> payload() const { return payload_; }

  /// The trailing checksum, already verified against the payload.
  uint64_t checksum() const { return checksum_; }

 private:
  friend util::StatusOr<SnapshotBlob> ReadSnapshotFile(const std::string&,
                                                       bool);
  std::vector<uint8_t> owned_;
  util::MappedFile mapped_;
  std::span<const uint8_t> payload_;
  uint64_t checksum_ = 0;
};

/// Reads `path` (buffered, or mmap'd when `use_mmap`), verifies the
/// trailing checksum, and returns the payload. DataLoss on truncation or
/// checksum mismatch.
util::StatusOr<SnapshotBlob> ReadSnapshotFile(const std::string& path,
                                              bool use_mmap);

/// Stages one snapshot epoch: Begin creates root/snapshot-NNNNNN/, each
/// WriteFile lands one checksummed data file in it, and Commit writes the
/// manifest, atomically repoints CURRENT, and garbage-collects older
/// epochs. Dropping the writer without Commit leaves an orphan epoch that
/// loaders ignore and the next Commit cleans up.
class SnapshotWriter {
 public:
  static util::StatusOr<SnapshotWriter> Begin(const std::string& root);

  /// Writes payload + checksum to `name` inside the epoch directory and
  /// records its manifest entry.
  util::Status WriteFile(const std::string& name,
                         std::span<const uint8_t> payload);

  /// Completes the snapshot: `manifest.files` is filled from the staged
  /// files, the manifest is written last, CURRENT is atomically replaced,
  /// and older epoch directories are removed.
  util::Status Commit(Manifest manifest);

  const std::string& epoch_dir() const { return epoch_dir_; }

 private:
  std::string root_;
  std::string epoch_name_;
  std::string epoch_dir_;
  std::vector<FileEntry> files_;
};

/// Opens the snapshot CURRENT points at and loads its manifest. Each
/// ReadFile cross-checks the file's size and checksum against the manifest
/// (catching mixed-epoch and partially-written state) before returning the
/// payload.
class SnapshotReader {
 public:
  static util::StatusOr<SnapshotReader> Open(const std::string& root,
                                             bool use_mmap);

  const Manifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }

  util::StatusOr<SnapshotBlob> ReadFile(const std::string& name) const;

 private:
  std::string dir_;
  bool use_mmap_ = false;
  Manifest manifest_;
};

}  // namespace snapshot
}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_SNAPSHOT_H_
