// Tests for util/serialize.h: encode/decode round trips, the bounds
// checking the snapshot loaders depend on, and the crash-safe file write.

#include "util/serialize.h"

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hybridlsh {
namespace util {
namespace {

TEST(ByteWriterTest, ScalarRoundTrip) {
  ByteWriter writer;
  writer.WriteU8(7);
  writer.WriteU32(123456);
  writer.WriteU64(0xdeadbeefcafebabeULL);
  writer.WriteI32(-42);
  writer.WriteF32(3.25f);
  writer.WriteF64(-2.5);

  ByteReader reader(writer.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  float f32;
  double f64;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  ASSERT_TRUE(reader.ReadF32(&f32).ok());
  ASSERT_TRUE(reader.ReadF64(&f64).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafebabeULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(f32, 3.25f);
  EXPECT_EQ(f64, -2.5);
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

TEST(ByteWriterTest, BlobRoundTrip) {
  ByteWriter writer;
  const std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  writer.WriteBlob(payload);
  ByteReader reader(writer.bytes());
  std::vector<uint8_t> out;
  ASSERT_TRUE(reader.ReadBlob(&out).ok());
  EXPECT_EQ(out, payload);
}

TEST(ByteWriterTest, EmptyBlob) {
  ByteWriter writer;
  writer.WriteBlob({});
  ByteReader reader(writer.bytes());
  std::vector<uint8_t> out{9};
  ASSERT_TRUE(reader.ReadBlob(&out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ByteWriterTest, ArrayRoundTrip) {
  ByteWriter writer;
  const std::vector<uint64_t> values{10, 20, 30};
  writer.WriteArray<uint64_t>(values);
  ByteReader reader(writer.bytes());
  std::vector<uint64_t> out;
  ASSERT_TRUE(reader.ReadArray<uint64_t>(3, &out).ok());
  EXPECT_EQ(out, values);
}

TEST(ByteReaderTest, TruncatedScalarIsDataLoss) {
  ByteWriter writer;
  writer.WriteU8(1);
  ByteReader reader(writer.bytes());
  uint64_t out;
  EXPECT_EQ(reader.ReadU64(&out).code(), StatusCode::kDataLoss);
}

TEST(ByteReaderTest, OversizedBlobLengthIsDataLoss) {
  ByteWriter writer;
  writer.WriteU64(1 << 20);  // claims a megabyte that is not there
  ByteReader reader(writer.bytes());
  std::vector<uint8_t> out;
  EXPECT_EQ(reader.ReadBlob(&out).code(), StatusCode::kDataLoss);
}

TEST(ByteReaderTest, OversizedArrayCountIsDataLoss) {
  ByteWriter writer;
  writer.WriteU32(5);
  ByteReader reader(writer.bytes());
  std::vector<uint64_t> out;
  EXPECT_EQ(reader.ReadArray<uint64_t>(1000, &out).code(),
            StatusCode::kDataLoss);
}

TEST(ByteReaderTest, ExpectEndCatchesTrailingBytes) {
  ByteWriter writer;
  writer.WriteU32(1);
  writer.WriteU8(0xff);
  ByteReader reader(writer.bytes());
  uint32_t out;
  ASSERT_TRUE(reader.ReadU32(&out).ok());
  EXPECT_EQ(reader.ExpectEnd().code(), StatusCode::kDataLoss);
}

TEST(ByteReaderTest, RemainingTracksConsumption) {
  ByteWriter writer;
  writer.WriteU64(1);
  writer.WriteU32(2);
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.remaining(), 12u);
  uint64_t u64;
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  EXPECT_EQ(reader.remaining(), 4u);
}

TEST(FileBytesTest, RoundTrip) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "hybridlsh_serialize_test.bin")
                        .string();
  const std::vector<uint8_t> payload{9, 8, 7, 6};
  ASSERT_TRUE(WriteFileBytes(path, payload).ok());
  auto restored = ReadFileBytes(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, payload);
  std::filesystem::remove(path);
}

TEST(FileBytesTest, AtomicWriteReplacesTheFileAndAppendsTheTrailer) {
  // Every snapshot file is written this way: the bytes and the trailer
  // land in `path.tmp`, which is renamed over `path`.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hybridlsh_atomic_write_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "file.bin").string();
  const std::string tmp = path + ".tmp";
  // An existing file, and a stray temp file from an interrupted earlier
  // write; both are longer than what replaces them.
  ASSERT_TRUE(WriteFileBytes(path, std::vector<uint8_t>(16, 0x11)).ok());
  ASSERT_TRUE(WriteFileBytes(tmp, std::vector<uint8_t>(16, 0xee)).ok());

  const std::vector<uint8_t> payload{9, 8, 7};
  const std::vector<uint8_t> trailer{0xab, 0xcd};
  ASSERT_TRUE(AtomicWriteFileBytes(path, payload, trailer).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  auto written = ReadFileBytes(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, (std::vector<uint8_t>{9, 8, 7, 0xab, 0xcd}));

  // Without a trailer, the payload alone replaces the file.
  ASSERT_TRUE(AtomicWriteFileBytes(path, payload).ok());
  EXPECT_FALSE(std::filesystem::exists(tmp));
  written = ReadFileBytes(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, payload);
  std::filesystem::remove_all(dir);
}

TEST(FileBytesTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadFileBytes("/nonexistent/path/x.bin").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace util
}  // namespace hybridlsh
