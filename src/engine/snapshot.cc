#include "engine/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <system_error>

#include "util/hash.h"

namespace hybridlsh {
namespace engine {
namespace snapshot {

namespace {

constexpr uint64_t kManifestMagic = 0x50414e53484c5348ULL;  // "HSLHSNAP"
constexpr uint64_t kChecksumSeed = 0x736e617073686f74ULL;   // "snapshot"
constexpr char kEpochPrefix[] = "snapshot-";

uint64_t Checksum(std::span<const uint8_t> payload) {
  return util::HashBytes(payload.data(), payload.size(), kChecksumSeed);
}

/// Parses "snapshot-NNNNNN" -> NNNNNN, or nullopt for other names.
std::optional<uint64_t> EpochOf(const std::string& name) {
  const std::string prefix(kEpochPrefix);
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix)) {
    return std::nullopt;
  }
  uint64_t epoch = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return epoch;
}

std::string EpochName(uint64_t epoch) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%06" PRIu64, kEpochPrefix, epoch);
  return buffer;
}

void WriteString(util::ByteWriter* writer, const std::string& text) {
  writer->WriteBlob({reinterpret_cast<const uint8_t*>(text.data()),
                     text.size()});
}

util::Status ReadString(util::ByteReader* reader, std::string* out) {
  std::vector<uint8_t> bytes;
  HLSH_RETURN_IF_ERROR(reader->ReadBlob(&bytes));
  out->assign(bytes.begin(), bytes.end());
  return util::Status::Ok();
}

/// Reads one size_t option, which the manifest stores as a u64.
util::Status ReadSize(util::ByteReader* reader, size_t* out) {
  uint64_t value = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&value));
  *out = static_cast<size_t>(value);
  return util::Status::Ok();
}

}  // namespace

std::string ShardFileName(size_t shard) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "shard-%03zu.bin", shard);
  return buffer;
}

// --- Manifest ---------------------------------------------------------------

void Manifest::Serialize(util::ByteWriter* writer) const {
  writer->WriteU64(kManifestMagic);
  writer->WriteU32(format_version);
  writer->WriteU32(family_tag);
  writer->WriteU32(metric_tag);
  writer->WriteU32(dataset_kind);
  writer->WriteU64(num_points);
  writer->WriteU64(initial_n);

  const core::CostModel& cost = config.searcher.cost_model;
  writer->WriteU64(config.num_shards);
  writer->WriteU64(config.num_threads);
  writer->WriteI32(config.num_tables);
  writer->WriteI32(config.k);
  writer->WriteF64(config.delta);
  writer->WriteF64(config.radius);
  writer->WriteI32(config.hll_precision);
  writer->WriteU64(config.small_bucket_threshold);
  writer->WriteU64(config.seed);
  writer->WriteU64(config.active_seal_threshold);
  writer->WriteU64(config.max_sealed_segments);
  writer->WriteF64(cost.alpha);
  writer->WriteF64(cost.beta);
  writer->WriteU64(config.searcher.probes_per_table);
  writer->WriteU32(static_cast<uint32_t>(config.searcher.forced));
  // v2 config fields sit between the v1 config block and the file list so
  // the version-gated Parse below can skip them for v1 payloads.
  writer->WriteU32(config.quantized_verify ? 1 : 0);
  writer->WriteF64(cost.beta_screen);
  writer->WriteF64(cost.rescore_fraction);

  writer->WriteU64(files.size());
  for (const FileEntry& file : files) {
    WriteString(writer, file.name);
    writer->WriteU64(file.size);
    writer->WriteU64(file.checksum);
  }
}

util::StatusOr<Manifest> Manifest::Parse(util::ByteReader* reader) {
  Manifest manifest;
  uint64_t magic = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&magic));
  if (magic != kManifestMagic) {
    return util::Status::DataLoss("not a hybridlsh snapshot manifest");
  }
  HLSH_RETURN_IF_ERROR(reader->ReadU32(&manifest.format_version));
  if (manifest.format_version < kMinFormatVersion ||
      manifest.format_version > kFormatVersion) {
    return util::Status::DataLoss("unsupported snapshot format version");
  }
  HLSH_RETURN_IF_ERROR(reader->ReadU32(&manifest.family_tag));
  HLSH_RETURN_IF_ERROR(reader->ReadU32(&manifest.metric_tag));
  HLSH_RETURN_IF_ERROR(reader->ReadU32(&manifest.dataset_kind));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&manifest.num_points));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&manifest.initial_n));

  EngineOptions& config = manifest.config;
  core::CostModel& cost = config.searcher.cost_model;
  uint32_t forced = 0;
  uint32_t quantized_verify = 1;
  HLSH_RETURN_IF_ERROR(ReadSize(reader, &config.num_shards));
  HLSH_RETURN_IF_ERROR(ReadSize(reader, &config.num_threads));
  HLSH_RETURN_IF_ERROR(reader->ReadI32(&config.num_tables));
  HLSH_RETURN_IF_ERROR(reader->ReadI32(&config.k));
  HLSH_RETURN_IF_ERROR(reader->ReadF64(&config.delta));
  HLSH_RETURN_IF_ERROR(reader->ReadF64(&config.radius));
  HLSH_RETURN_IF_ERROR(reader->ReadI32(&config.hll_precision));
  HLSH_RETURN_IF_ERROR(ReadSize(reader, &config.small_bucket_threshold));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&config.seed));
  HLSH_RETURN_IF_ERROR(ReadSize(reader, &config.active_seal_threshold));
  HLSH_RETURN_IF_ERROR(ReadSize(reader, &config.max_sealed_segments));
  HLSH_RETURN_IF_ERROR(reader->ReadF64(&cost.alpha));
  HLSH_RETURN_IF_ERROR(reader->ReadF64(&cost.beta));
  HLSH_RETURN_IF_ERROR(ReadSize(reader, &config.searcher.probes_per_table));
  HLSH_RETURN_IF_ERROR(reader->ReadU32(&forced));
  if (manifest.format_version >= 2) {
    HLSH_RETURN_IF_ERROR(reader->ReadU32(&quantized_verify));
    HLSH_RETURN_IF_ERROR(reader->ReadF64(&cost.beta_screen));
    HLSH_RETURN_IF_ERROR(reader->ReadF64(&cost.rescore_fraction));
  }
  // A v1 snapshot predates quantized verification: restore with the
  // default-on screen and the single-beta cost model (the EngineOptions
  // initializers), and rebuild the mirror from the dataset at open.
  if (quantized_verify > 1) {
    return util::Status::DataLoss("snapshot manifest has invalid config");
  }
  config.searcher.forced = static_cast<core::ForcedStrategy>(forced);
  config.quantized_verify = quantized_verify != 0;
  // The checks Build runs, among them the bounds on the fields that size
  // allocations (shard vectors, thread pool, active logs), before any
  // shard payload is read.
  const util::Status valid = ValidateOptions(config);
  if (!valid.ok()) {
    return util::Status::DataLoss("snapshot manifest has invalid config: " +
                                  valid.message());
  }

  uint64_t num_files = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_files));
  if (num_files > (uint64_t{1} << 20)) {
    return util::Status::DataLoss("snapshot manifest lists too many files");
  }
  manifest.files.resize(num_files);
  for (FileEntry& file : manifest.files) {
    HLSH_RETURN_IF_ERROR(ReadString(reader, &file.name));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&file.size));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&file.checksum));
  }
  HLSH_RETURN_IF_ERROR(reader->ExpectEnd());
  return manifest;
}

const FileEntry* Manifest::FindFile(const std::string& name) const {
  for (const FileEntry& file : files) {
    if (file.name == name) return &file;
  }
  return nullptr;
}

// --- Checksummed file IO ----------------------------------------------------

util::StatusOr<SnapshotBlob> ReadSnapshotFile(const std::string& path,
                                              bool use_mmap) {
  SnapshotBlob blob;
  std::span<const uint8_t> bytes;
  if (use_mmap) {
    auto mapped = util::MappedFile::Open(path);
    if (!mapped.ok()) return mapped.status();
    blob.mapped_ = std::move(*mapped);
    bytes = blob.mapped_.bytes();
  } else {
    auto owned = util::ReadFileBytes(path);
    if (!owned.ok()) return owned.status();
    blob.owned_ = std::move(*owned);
    bytes = blob.owned_;
  }
  if (bytes.size() < sizeof(uint64_t)) {
    return util::Status::DataLoss("snapshot file is truncated: " + path);
  }
  const std::span<const uint8_t> payload =
      bytes.subspan(0, bytes.size() - sizeof(uint64_t));
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload.size(), sizeof(stored));
  if (stored != Checksum(payload)) {
    return util::Status::DataLoss("snapshot file fails its checksum: " + path);
  }
  blob.payload_ = payload;
  blob.checksum_ = stored;
  return blob;
}

// --- SnapshotWriter ---------------------------------------------------------

util::StatusOr<SnapshotWriter> SnapshotWriter::Begin(const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return util::Status::Internal("cannot create snapshot root: " + root);
  }

  // Next epoch = 1 + the largest existing one (complete or orphaned).
  uint64_t epoch = 1;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const auto existing = EpochOf(entry.path().filename().string());
    if (existing.has_value()) epoch = std::max(epoch, *existing + 1);
  }

  SnapshotWriter writer;
  writer.root_ = root;
  writer.epoch_name_ = EpochName(epoch);
  writer.epoch_dir_ = root + "/" + writer.epoch_name_;
  fs::create_directory(writer.epoch_dir_, ec);
  if (ec) {
    return util::Status::Internal("cannot create snapshot epoch: " +
                                  writer.epoch_dir_);
  }
  return writer;
}

util::Status SnapshotWriter::WriteFile(const std::string& name,
                                       std::span<const uint8_t> payload) {
  // The checksum trailer rides in the same atomic write — no second buffer
  // holding a copy of the (possibly dataset-sized) payload, one hash pass.
  const uint64_t checksum = Checksum(payload);
  uint8_t trailer[sizeof(checksum)];
  std::memcpy(trailer, &checksum, sizeof(checksum));
  HLSH_RETURN_IF_ERROR(
      util::AtomicWriteFileBytes(epoch_dir_ + "/" + name, payload, trailer));
  files_.push_back(
      FileEntry{name, payload.size() + sizeof(checksum), checksum});
  return util::Status::Ok();
}

util::Status SnapshotWriter::Commit(Manifest manifest) {
  namespace fs = std::filesystem;
  manifest.files = files_;

  // Manifest last: its presence certifies every data file above it.
  util::ByteWriter payload;
  manifest.Serialize(&payload);
  const uint64_t checksum = Checksum(payload.bytes());
  uint8_t trailer[sizeof(checksum)];
  std::memcpy(trailer, &checksum, sizeof(checksum));
  HLSH_RETURN_IF_ERROR(util::AtomicWriteFileBytes(
      epoch_dir_ + "/" + kManifestFile, payload.bytes(), trailer));

  // Publish: CURRENT is the commit point.
  const std::string current = epoch_name_ + "\n";
  HLSH_RETURN_IF_ERROR(util::AtomicWriteFileBytes(
      root_ + "/" + kCurrentFile,
      {reinterpret_cast<const uint8_t*>(current.data()), current.size()}));

  // GC older (and orphaned) epochs only after the new one is live.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    const std::string name = entry.path().filename().string();
    if (EpochOf(name).has_value() && name != epoch_name_) {
      fs::remove_all(entry.path(), ec);  // best-effort
    }
  }
  return util::Status::Ok();
}

// --- SnapshotReader ---------------------------------------------------------

util::StatusOr<SnapshotReader> SnapshotReader::Open(const std::string& root,
                                                    bool use_mmap) {
  auto current = util::ReadFileBytes(root + "/" + kCurrentFile);
  if (!current.ok()) {
    if (current.status().code() == util::StatusCode::kNotFound) {
      return util::Status::NotFound("no snapshot at " + root +
                                    " (missing CURRENT)");
    }
    return current.status();
  }
  std::string name(current->begin(), current->end());
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  if (name.empty() || name.find('/') != std::string::npos ||
      !EpochOf(name).has_value()) {
    return util::Status::DataLoss("snapshot CURRENT names an invalid epoch");
  }

  SnapshotReader reader;
  reader.dir_ = root + "/" + name;
  reader.use_mmap_ = use_mmap;
  auto blob = ReadSnapshotFile(reader.dir_ + "/" + kManifestFile, use_mmap);
  if (!blob.ok()) return blob.status();
  util::ByteReader bytes(blob->payload());
  auto manifest = Manifest::Parse(&bytes);
  if (!manifest.ok()) return manifest.status();
  reader.manifest_ = std::move(*manifest);
  return reader;
}

util::StatusOr<SnapshotBlob> SnapshotReader::ReadFile(
    const std::string& name) const {
  const FileEntry* entry = manifest_.FindFile(name);
  if (entry == nullptr) {
    return util::Status::DataLoss("snapshot manifest does not list " + name);
  }
  auto blob = ReadSnapshotFile(dir_ + "/" + name, use_mmap_);
  if (!blob.ok()) return blob.status();
  const uint64_t size = blob->payload().size() + sizeof(uint64_t);
  // The trailing checksum was just verified against the payload, so
  // comparing it to the manifest entry is equivalent to re-hashing.
  if (size != entry->size || blob->checksum() != entry->checksum) {
    return util::Status::DataLoss(
        "snapshot file disagrees with its manifest entry: " + name);
  }
  return blob;
}

}  // namespace snapshot
}  // namespace engine
}  // namespace hybridlsh
