#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "core/journal.h"
#include "core/processor.h"
#include "core/sharded_processor.h"
#include "core/toolkit.h"
#include "sim/reading.h"
#include "stream/serialize.h"

namespace esp::core {
namespace {

using stream::Relation;
using stream::Tuple;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Patches the trailing file checksum after a deliberate payload flip, so the
// per-section CRC (not the manifest checksum) is what catches the damage.
void FixFileCrc(std::string& bytes) {
  const std::string_view body(bytes.data(), bytes.size() - 4);
  const uint32_t crc = Crc32(body);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

TEST(CheckpointContainerTest, RoundTripPreservesSectionsAndOrder) {
  CheckpointWriter writer;
  writer.AddSection("alpha", std::string("first payload"));
  ByteWriter bw;
  bw.WriteU64(42);
  bw.WriteString("nested");
  writer.AddSection("beta", std::move(bw));
  writer.AddSection("empty", std::string());

  auto reader = CheckpointReader::Parse(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->section_names(),
            (std::vector<std::string>{"alpha", "beta", "empty"}));

  auto alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status();
  EXPECT_EQ(*alpha, "first payload");

  auto beta = reader->Section("beta");
  ASSERT_TRUE(beta.ok()) << beta.status();
  ByteReader br(*beta);
  auto num = br.ReadU64();
  ASSERT_TRUE(num.ok());
  EXPECT_EQ(*num, 42u);
  auto str = br.ReadString();
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(*str, "nested");
  EXPECT_TRUE(br.exhausted());

  auto empty = reader->Section("empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  EXPECT_FALSE(reader->HasSection("gamma"));
  auto missing = reader->Section("gamma");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointContainerTest, RejectsBadMagic) {
  CheckpointWriter writer;
  writer.AddSection("s", std::string("payload"));
  std::string bytes = writer.Serialize();
  bytes[0] = 'X';
  FixFileCrc(bytes);
  auto reader = CheckpointReader::Parse(std::move(bytes));
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(CheckpointContainerTest, ManifestChecksumCatchesAnyFlip) {
  CheckpointWriter writer;
  writer.AddSection("s", std::string("payload"));
  std::string bytes = writer.Serialize();
  bytes[bytes.size() / 2] ^= 0x40;
  auto reader = CheckpointReader::Parse(std::move(bytes));
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(CheckpointContainerTest, SectionCrcNamesTheDamagedSection) {
  CheckpointWriter writer;
  writer.AddSection("healthy", std::string("aaaaaaaa"));
  writer.AddSection("damaged", std::string("bbbbbbbb"));
  std::string bytes = writer.Serialize();
  // Flip a byte inside the second payload (the last 'b' run before the
  // trailing checksum), then repair the manifest checksum so only the
  // per-section CRC can catch it.
  const size_t pos = bytes.rfind("bbbbbbbb");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 3] = 'Z';
  FixFileCrc(bytes);
  auto reader = CheckpointReader::Parse(std::move(bytes));
  ASSERT_EQ(reader.status().code(), StatusCode::kParseError);
  EXPECT_NE(reader.status().message().find("damaged"), std::string::npos)
      << reader.status();
}

TEST(CheckpointContainerTest, RejectsTruncatedFile) {
  CheckpointWriter writer;
  writer.AddSection("s", std::string(256, 'x'));
  const std::string bytes = writer.Serialize();
  // Cut at several depths: inside the trailing checksum, inside the payload,
  // and inside the header.
  for (const size_t keep :
       {bytes.size() - 2, bytes.size() - 20, bytes.size() / 2, size_t{5}}) {
    auto reader = CheckpointReader::Parse(bytes.substr(0, keep));
    EXPECT_EQ(reader.status().code(), StatusCode::kParseError)
        << "keep=" << keep;
  }
}

TEST(CheckpointFileTest, AtomicWriteThenReadBack) {
  const std::string path = TempPath("atomic_write_test.bin");
  const std::string payload = "durable bytes \x01\x02\x03";
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  // Overwrite in place: rename replaces the old file atomically.
  ASSERT_TRUE(AtomicWriteFile(path, "second version").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second version");
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, ReadMissingFileIsNotFound) {
  auto read = ReadFileToString(TempPath("definitely_absent.bin"));
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFileTest, WriteToFileRoundTrips) {
  const std::string path = TempPath("checkpoint_file_test.ckpt");
  CheckpointWriter writer;
  writer.AddSection("clock", std::string("tick tock"));
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  auto reader = CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto clock = reader->Section("clock");
  ASSERT_TRUE(clock.ok());
  EXPECT_EQ(*clock, "tick tock");
  std::remove(path.c_str());
}

Tuple Rfid(const std::string& reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{reader, tag, Timestamp::Seconds(t)});
}

TEST(JournalTest, RoundTripPushAndTickRecords) {
  const std::string path = TempPath("journal_roundtrip.wal");
  std::remove(path.c_str());
  {
    auto writer = JournalWriter::Create(path, {});
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_0", "x", 1)).ok());
    ASSERT_TRUE((*writer)->AppendTick(Timestamp::Seconds(1)).ok());
    ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_1", "y", 2)).ok());
    EXPECT_EQ((*writer)->records_written(), 3u);
    ASSERT_TRUE((*writer)->Flush().ok());
  }

  auto scan = ScanJournal(path, /*truncate_torn_tail=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->torn_bytes, 0u);
  ASSERT_EQ(scan->records.size(), 3u);

  EXPECT_EQ(scan->records[0].kind, JournalRecord::Kind::kPush);
  EXPECT_EQ(scan->records[0].device_type, "rfid");
  auto tuple = DecodeJournalTuple(scan->records[0], sim::RfidReadingSchema());
  ASSERT_TRUE(tuple.ok()) << tuple.status();
  EXPECT_EQ(tuple->Get("reader_id")->string_value(), "reader_0");
  EXPECT_EQ(tuple->Get("tag_id")->string_value(), "x");
  EXPECT_EQ(tuple->timestamp(), Timestamp::Seconds(1));

  EXPECT_EQ(scan->records[1].kind, JournalRecord::Kind::kTick);
  EXPECT_EQ(scan->records[1].tick_time, Timestamp::Seconds(1));

  tuple = DecodeJournalTuple(scan->records[2], sim::RfidReadingSchema());
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->Get("tag_id")->string_value(), "y");
  std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsDetectedAndTruncated) {
  const std::string path = TempPath("journal_torn.wal");
  std::remove(path.c_str());
  {
    auto writer = JournalWriter::Create(path, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_0", "x", 1)).ok());
    ASSERT_TRUE((*writer)->AppendTick(Timestamp::Seconds(1)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  // Simulate a crash mid-append: a frame header promising more bytes than
  // the file holds.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = {static_cast<char>(0xff), 0x00, 0x00, 0x00, 0x01};
    fwrite(torn, 1, sizeof(torn), f);
    fclose(f);
  }

  auto scan = ScanJournal(path, /*truncate_torn_tail=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->torn_bytes, 5u);

  // After repair the file scans clean and a writer can continue appending.
  auto rescan = ScanJournal(path, /*truncate_torn_tail=*/false);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->torn_bytes, 0u);
  EXPECT_EQ(rescan->records.size(), 2u);

  auto writer =
      JournalWriter::Append(path, {}, rescan->records.size(),
                            rescan->valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_1", "z", 3)).ok());
  ASSERT_TRUE((*writer)->Flush().ok());
  EXPECT_EQ((*writer)->records_written(), 3u);
  // Byte accounting continues from the recovered prefix: the writer's
  // total matches the file on disk.
  auto on_disk = ReadFileToString(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ((*writer)->bytes_written(), on_disk->size());

  auto final_scan = ScanJournal(path, /*truncate_torn_tail=*/false);
  ASSERT_TRUE(final_scan.ok());
  ASSERT_EQ(final_scan->records.size(), 3u);
  auto tuple =
      DecodeJournalTuple(final_scan->records[2], sim::RfidReadingSchema());
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->Get("tag_id")->string_value(), "z");
  std::remove(path.c_str());
}

TEST(JournalTest, CorruptRecordPayloadStopsTheScan) {
  const std::string path = TempPath("journal_crcflip.wal");
  std::remove(path.c_str());
  {
    auto writer = JournalWriter::Create(path, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_0", "x", 1)).ok());
    ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_0", "y", 2)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  // Flip a byte in the final record's payload: the scan keeps the first
  // record and reports the rest as torn.
  std::string damaged = *bytes;
  damaged[damaged.size() - 2] ^= 0x20;
  ASSERT_TRUE(AtomicWriteFile(path, damaged).ok());

  auto scan = ScanJournal(path, /*truncate_torn_tail=*/false);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_GT(scan->torn_bytes, 0u);
  auto tuple = DecodeJournalTuple(scan->records[0], sim::RfidReadingSchema());
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->Get("tag_id")->string_value(), "x");
  std::remove(path.c_str());
}

TEST(JournalTest, WriteFailurePoisonsTheWriter) {
  // /dev/full fails every write with ENOSPC, standing in for a partial
  // write: once a flush fails, retrying could duplicate bytes that already
  // reached the file, so the writer must refuse all further work.
  auto writer = JournalWriter::Append("/dev/full", {}, 0, 0);
  if (!writer.ok()) GTEST_SKIP() << "/dev/full unavailable";
  ASSERT_TRUE((*writer)->AppendPush("rfid", Rfid("reader_0", "x", 1)).ok());
  EXPECT_EQ((*writer)->Flush().code(), StatusCode::kIoError);
  EXPECT_EQ((*writer)->Flush().code(), StatusCode::kInternal);
  EXPECT_EQ((*writer)->AppendTick(Timestamp::Seconds(1)).code(),
            StatusCode::kInternal);
}

TEST(JournalTest, WrongMagicIsCorruptionNotATornTail) {
  const std::string path = TempPath("journal_badmagic.wal");
  ASSERT_TRUE(
      AtomicWriteFile(path, std::string("NOTAJRNL\x01\x00\x00\x00", 12))
          .ok());
  auto scan = ScanJournal(path, /*truncate_torn_tail=*/false);
  EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(JournalTest, FileShorterThanHeaderScansAsEmpty) {
  const std::string path = TempPath("journal_stub.wal");
  ASSERT_TRUE(AtomicWriteFile(path, "ESP").ok());
  auto scan = ScanJournal(path, /*truncate_torn_tail=*/true);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, 0u);
  EXPECT_EQ(scan->torn_bytes, 3u);
  std::remove(path.c_str());
}


// --- Engine snapshot format pin -------------------------------------------
//
// Snapshots outlive the binary that wrote them: a restarted deployment must
// restore what the previous build checkpointed. The constants below pin the
// exact bytes EspProcessor and the 2-shard ShardedEspProcessor produce for
// one seeded deployment that fills every section — two device types, an
// Arbitrate, a Virtualize, a Smooth that fails under kDegrade (non-empty
// "errors") and one standing query ("queries"). They were computed at the
// commit that introduced core::EngineCore, on the engines as they stood
// before it, so a refactor that changes any byte fails here.

/// A pass-through Smooth that fails every third Evaluate (kDegrade then
/// passes its input through and tallies the error).
StageFactory FlakySmooth() {
  return []() -> StatusOr<std::unique_ptr<Stage>> {
    class Flaky : public Stage {
     public:
      Flaky() : Stage(StageKind::kSmooth, "flaky_smooth") {}
      Status Bind(const cql::SchemaCatalog& inputs) override {
        ESP_ASSIGN_OR_RETURN(output_schema_,
                             inputs.Find(StageInputName(StageKind::kSmooth)));
        return Status::OK();
      }
      Status Push(const std::string&, Tuple tuple) override {
        buffer_.push_back(std::move(tuple));
        return Status::OK();
      }
      StatusOr<Relation> Evaluate(Timestamp) override {
        if (++calls_ % 3 == 0) {
          buffer_.clear();
          return Status::Internal("flaky smooth failure");
        }
        Relation out(output_schema_);
        for (Tuple& tuple : buffer_) out.Add(std::move(tuple));
        buffer_.clear();
        return out;
      }
      size_t buffered() const override { return buffer_.size(); }

     private:
      int calls_ = 0;
      std::vector<Tuple> buffer_;
    };
    return std::unique_ptr<Stage>(new Flaky());
  };
}

template <typename Engine>
Status ConfigurePinned(Engine& engine) {
  for (int s = 0; s < 3; ++s) {
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(
        {"pg_shelf" + std::to_string(s), "rfid",
         SpatialGranule{"shelf_" + std::to_string(s)},
         {"reader_" + std::to_string(s)}}));
  }
  for (int r = 0; r < 2; ++r) {
    ESP_RETURN_IF_ERROR(engine.AddProximityGroup(
        {"pg_room" + std::to_string(r), "mote",
         SpatialGranule{"room_" + std::to_string(r)},
         {"mote_" + std::to_string(r) + "_0",
          "mote_" + std::to_string(r) + "_1"}}));
  }
  DeviceTypePipeline rfid;
  rfid.device_type = "rfid";
  rfid.reading_schema = sim::RfidReadingSchema();
  rfid.receptor_id_column = "reader_id";
  rfid.smooth =
      SmoothPresenceCount(TemporalGranule(Duration::Seconds(3)), "tag_id");
  rfid.arbitrate = ArbitrateMaxCount("tag_id", "reads");
  ESP_RETURN_IF_ERROR(engine.AddPipeline(std::move(rfid)));

  DeviceTypePipeline mote;
  mote.device_type = "mote";
  mote.reading_schema = sim::TempReadingSchema();
  mote.receptor_id_column = "mote_id";
  mote.point.push_back(PointFilter("temp < 50"));
  mote.smooth = FlakySmooth();
  mote.merge = MergeWindowedAverage(TemporalGranule(Duration::Seconds(3)),
                                    "temp");
  ESP_RETURN_IF_ERROR(engine.AddPipeline(std::move(mote)));

  ESP_ASSIGN_OR_RETURN(
      std::unique_ptr<Stage> virtualize,
      VirtualizeVote({{"rfid_input", "reads >= 2"},
                      {"mote_input", "temp > 30"}},
                     2, "occupied"));
  engine.SetVirtualize(std::move(virtualize));
  ESP_RETURN_IF_ERROR(engine.Start());
  return engine.RegisterQuery(
      "t", "q", "SELECT count(*) AS n FROM rfid_input [Range By '10 sec']");
}

/// Seeded readings for tick `t` (the same stream on every call sequence).
std::vector<std::pair<std::string, Tuple>> PinnedReadings(int t, Rng& rng) {
  std::vector<std::pair<std::string, Tuple>> out;
  for (int s = 0; s < 3; ++s) {
    const int reads = 1 + static_cast<int>(rng.NextUint64() % 3);
    for (int i = 0; i < reads; ++i) {
      const int shelf = rng.NextDouble() < 0.25 ? (s + 1) % 3 : s;
      out.emplace_back(
          "rfid", sim::ToTuple(sim::RfidReading{
                      "reader_" + std::to_string(s),
                      "tag_" + std::to_string(shelf) + "_" +
                          std::to_string(rng.NextUint64() % 3),
                      Timestamp::Seconds(t)}));
    }
  }
  for (int r = 0; r < 2; ++r) {
    for (int m = 0; m < 2; ++m) {
      out.emplace_back("mote", sim::ToTempTuple(sim::MoteReading{
                                   "mote_" + std::to_string(r) + "_" +
                                       std::to_string(m),
                                   rng.Uniform(15.0, 60.0),
                                   Timestamp::Seconds(t)}));
    }
  }
  return out;
}

std::string TickBytes(const TickResult& result) {
  ByteWriter w;
  for (const auto& [type, relation] : result.per_type) {
    w.WriteString(type);
    w.WriteU32(static_cast<uint32_t>(relation.size()));
    for (const Tuple& tuple : relation.tuples()) stream::WriteTuple(w, tuple);
  }
  w.WriteBool(result.virtualized.has_value());
  if (result.virtualized.has_value()) {
    w.WriteU32(static_cast<uint32_t>(result.virtualized->size()));
    for (const Tuple& tuple : result.virtualized->tuples()) {
      stream::WriteTuple(w, tuple);
    }
  }
  for (const cql::SubscriptionResult& q : result.query_results) {
    w.WriteString(q.name);
    w.WriteString(q.status.ToString());
    if (q.result != nullptr) {
      for (const Tuple& tuple : q.result->tuples()) {
        stream::WriteTuple(w, tuple);
      }
    }
  }
  return std::move(w).Release();
}

/// Runs `make()`'s engine for 9 ticks, checks the snapshot's CRC32 and
/// length against the pins, restores the bytes into a fresh engine, and
/// checks the next three ticks against the uninterrupted one.
template <typename Engine, typename Make>
void CheckPinnedSnapshot(Make make, uint32_t want_crc, size_t want_size) {
  std::unique_ptr<Engine> original = make();
  ASSERT_TRUE(ConfigurePinned(*original).ok());
  Rng rng(20061);
  int t = 0;
  for (; t < 9; ++t) {
    for (auto& [type, reading] : PinnedReadings(t, rng)) {
      ASSERT_TRUE(original->Push(type, std::move(reading)).ok());
    }
    ASSERT_TRUE(original->Tick(Timestamp::Seconds(t)).ok());
  }
  ASSERT_GT(original->Health().total_stage_errors, 0);

  CheckpointWriter snapshot;
  ASSERT_TRUE(original->Checkpoint(snapshot).ok());
  const std::string bytes = snapshot.Serialize();
  // CRC32 of the body before the trailing checksum (the CRC of a whole
  // container is the same constant residue for every snapshot).
  EXPECT_EQ(Crc32(std::string_view(bytes).substr(0, bytes.size() - 4)),
            want_crc);
  EXPECT_EQ(bytes.size(), want_size);

  std::unique_ptr<Engine> restored = make();
  ASSERT_TRUE(ConfigurePinned(*restored).ok());
  auto reader = CheckpointReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->HasSection("errors"));
  ASSERT_TRUE(reader->HasSection("queries"));
  ASSERT_TRUE(restored->Restore(*reader).ok());
  for (; t < 12; ++t) {
    for (auto& [type, reading] : PinnedReadings(t, rng)) {
      ASSERT_TRUE(original->Push(type, reading).ok());
      ASSERT_TRUE(restored->Push(type, std::move(reading)).ok());
    }
    auto want = original->Tick(Timestamp::Seconds(t));
    auto got = restored->Tick(Timestamp::Seconds(t));
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(TickBytes(*got), TickBytes(*want)) << "t=" << t;
  }
}

TEST(CheckpointFormatTest, ProcessorSnapshotBytesArePinned) {
  CheckPinnedSnapshot<EspProcessor>(
      [] { return std::make_unique<EspProcessor>(); }, 1500486914u, 8019u);
}

TEST(CheckpointFormatTest, ShardedSnapshotBytesArePinned) {
  CheckPinnedSnapshot<ShardedEspProcessor>(
      [] {
        return std::make_unique<ShardedEspProcessor>(
            ShardedEspProcessor::Options{.num_shards = 2});
      },
      4095573578u, 8793u);
}

}  // namespace
}  // namespace esp::core
