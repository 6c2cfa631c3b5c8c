// Storage engine: values, codec, tables, database persistence, journal
// crash recovery.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "crypto/drbg.h"
#include "storage/codec.h"
#include "storage/database.h"
#include "storage/table.h"
#include "storage/value.h"

namespace amnesia::storage {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("amnesia_storage_test_" + std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string db_path(const std::string& name = "db") const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

Schema user_schema() {
  return Schema{.columns = {{"name", ValueType::kText},
                            {"age", ValueType::kInt},
                            {"score", ValueType::kReal, /*nullable=*/true},
                            {"blob", ValueType::kBlob, /*nullable=*/true}},
                .primary_key = 0};
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("hi").as_text(), "hi");
  EXPECT_EQ(Value(Bytes{1, 2}).as_blob(), (Bytes{1, 2}));
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW(Value(42).as_text(), StorageError);
  EXPECT_THROW(Value("x").as_int(), StorageError);
  EXPECT_THROW(Value().as_blob(), StorageError);
}

TEST(ValueTest, OrderingWithinAndAcrossTypes) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(9), Value("a"));  // int tag sorts before text tag
  EXPECT_FALSE(Value(2) < Value(2));
}

TEST(ValueTest, DisplayStringElidesLongBlobs) {
  EXPECT_EQ(Value(Bytes{0xff, 0x32}).to_display_string(), "0xff32");
  const Bytes big(64, 0xab);
  const std::string display = Value(big).to_display_string();
  EXPECT_EQ(display, "0xabababab...");
}

TEST(CodecTest, PrimitivesRoundTrip) {
  BufWriter w;
  w.u8(0xfe);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-17);
  w.f64(3.14159);
  w.str("text");
  w.bytes(Bytes{9, 8, 7});

  BufReader r(w.data());
  EXPECT_EQ(r.u8(), 0xfe);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -17);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "text");
  EXPECT_EQ(r.bytes(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, ValuesRoundTripAllTypes) {
  const std::vector<Value> values = {Value(), Value(-5), Value(1.5),
                                     Value("s"), Value(Bytes{0, 255})};
  BufWriter w;
  for (const auto& v : values) w.value(v);
  BufReader r(w.data());
  for (const auto& v : values) EXPECT_EQ(r.value(), v);
}

TEST(CodecTest, TruncatedInputThrows) {
  BufWriter w;
  w.u64(1);
  BufReader r(ByteView(w.data().data(), 4));
  EXPECT_THROW(r.u64(), FormatError);
}

TEST(CodecTest, OversizedLengthPrefixThrows) {
  BufWriter w;
  w.u32(1000);  // claims 1000 bytes follow
  BufReader r(w.data());
  EXPECT_THROW(r.bytes(), FormatError);
}

TEST(CodecTest, Crc32KnownVector) {
  // CRC-32("123456789") = 0xcbf43926 (IEEE).
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(SchemaTest, ValidationRejectsBadSchemas) {
  EXPECT_THROW(Schema{}.validate(), StorageError);
  EXPECT_THROW((Schema{.columns = {{"a", ValueType::kText}}, .primary_key = 5})
                   .validate(),
               StorageError);
  EXPECT_THROW((Schema{.columns = {{"a", ValueType::kText, true}},
                       .primary_key = 0})
                   .validate(),
               StorageError);
  EXPECT_THROW((Schema{.columns = {{"a", ValueType::kText},
                                   {"a", ValueType::kInt}},
                       .primary_key = 0})
                   .validate(),
               StorageError);
}

TEST(SchemaTest, ColumnIndexLookup) {
  const Schema s = user_schema();
  EXPECT_EQ(s.column_index("age"), 1u);
  EXPECT_FALSE(s.column_index("missing").has_value());
}

TEST(TableTest, InsertGetUpdateRemove) {
  Table t(user_schema());
  t.insert({"alice", 30, 9.5, Bytes{1}});
  t.insert({"bob", 25, Value(), Value()});
  EXPECT_EQ(t.size(), 2u);

  const auto row = t.get(Value("alice"));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].as_int(), 30);

  EXPECT_TRUE(t.update(Value("alice"), {"alice", 31, 9.5, Bytes{1}}));
  EXPECT_EQ(t.get(Value("alice"))->at(1).as_int(), 31);

  EXPECT_TRUE(t.remove(Value("bob")));
  EXPECT_FALSE(t.remove(Value("bob")));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, DuplicateKeyRejected) {
  Table t(user_schema());
  t.insert({"alice", 30, Value(), Value()});
  EXPECT_THROW(t.insert({"alice", 31, Value(), Value()}), StorageError);
}

TEST(TableTest, UpsertReplaces) {
  Table t(user_schema());
  t.upsert({"alice", 30, Value(), Value()});
  t.upsert({"alice", 31, Value(), Value()});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.get(Value("alice"))->at(1).as_int(), 31);
}

TEST(TableTest, SchemaViolationsRejected) {
  Table t(user_schema());
  EXPECT_THROW(t.insert({"alice", 30}), StorageError);              // arity
  EXPECT_THROW(t.insert({"alice", "x", Value(), Value()}), StorageError);  // type
  EXPECT_THROW(t.insert({Value(), 30, Value(), Value()}), StorageError);   // null pk
}

TEST(TableTest, UpdateCannotChangePrimaryKey) {
  Table t(user_schema());
  t.insert({"alice", 30, Value(), Value()});
  EXPECT_THROW(t.update(Value("alice"), {"ally", 30, Value(), Value()}),
               StorageError);
}

TEST(TableTest, SelectAndRemoveIf) {
  Table t(user_schema());
  for (int i = 0; i < 10; ++i) {
    t.insert({"u" + std::to_string(i), i, Value(), Value()});
  }
  const auto young =
      t.select([](const Row& r) { return r[1].as_int() < 3; });
  EXPECT_EQ(young.size(), 3u);
  EXPECT_EQ(t.remove_if([](const Row& r) { return r[1].as_int() >= 5; }), 5u);
  EXPECT_EQ(t.size(), 5u);
}

TEST(TableTest, AllReturnsRowsInKeyOrder) {
  Table t(user_schema());
  t.insert({"charlie", 1, Value(), Value()});
  t.insert({"alice", 2, Value(), Value()});
  t.insert({"bob", 3, Value(), Value()});
  const auto rows = t.all();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].as_text(), "alice");
  EXPECT_EQ(rows[1][0].as_text(), "bob");
  EXPECT_EQ(rows[2][0].as_text(), "charlie");
}

/// Keys visit_prefix yields, in visiting order.
std::vector<std::string> VisitedKeys(const Table& t, std::string_view prefix) {
  std::vector<std::string> keys;
  t.visit_prefix(prefix,
                 [&](const Row& r) { keys.push_back(r[0].as_text()); });
  return keys;
}

/// The same rows by full scan: every key that starts with `prefix`.
std::vector<std::string> ScannedKeys(const Table& t, std::string_view prefix) {
  std::vector<std::string> keys;
  for (const Row& r : t.select([&](const Row& row) {
         return row[0].as_text().starts_with(prefix);
       })) {
    keys.push_back(r[0].as_text());
  }
  return keys;
}

TEST(TableTest, VisitPrefixYieldsExactlyThePrefixRangeInKeyOrder) {
  Table t(user_schema());
  for (const char* name : {"pb-user-1\x1f" "b", "pb-user-10\x1f" "a",
                           "pb-user-1\x1f" "a", "pb-user-1x\x1f" "a",
                           "pb-user-1", "pb-user-0\x1f" "z", "zz", "",
                           "pb-user-1\x1f\x1f", "\xff" "hi"}) {
    t.insert({name, 1, Value(), Value()});
  }
  for (const std::string_view prefix :
       {"pb-user-1\x1f", "pb-user-1", "pb-user-10", "pb", "zz", "zzz",
        "\xff", "pb-user-2"}) {
    EXPECT_EQ(VisitedKeys(t, prefix), ScannedKeys(t, prefix)) << prefix;
  }
  EXPECT_EQ(VisitedKeys(t, "pb-user-1\x1f"),
            (std::vector<std::string>{"pb-user-1\x1f\x1f", "pb-user-1\x1f" "a",
                                      "pb-user-1\x1f" "b"}));
  // The empty prefix is every row; a full key is that row alone; a
  // prefix past the last key is none.
  EXPECT_EQ(VisitedKeys(t, ""), ScannedKeys(t, ""));
  EXPECT_EQ(VisitedKeys(t, "").size(), t.size());
  EXPECT_EQ(VisitedKeys(t, "zz"), (std::vector<std::string>{"zz"}));
  EXPECT_TRUE(VisitedKeys(t, "\xff\xff").empty());
  EXPECT_TRUE(VisitedKeys(Table(user_schema()), "").empty());
}

TEST(TableTest, VisitPrefixOnIntKeyedTableYieldsNone) {
  Table t(Schema{.columns = {{"id", ValueType::kInt},
                             {"name", ValueType::kText}},
                 .primary_key = 0});
  t.insert({1, "a"});
  t.insert({2, "b"});
  std::size_t visited = 0;
  t.visit_prefix("", [&](const Row&) { ++visited; });
  t.visit_prefix("1", [&](const Row&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(DatabaseTest, InMemoryBasicOps) {
  Database db;
  db.create_table("users", user_schema());
  EXPECT_TRUE(db.has_table("users"));
  db.insert("users", {"alice", 30, Value(), Value()});
  EXPECT_EQ(db.table("users").size(), 1u);
  EXPECT_THROW(db.table("ghost"), StorageError);
  EXPECT_THROW(db.create_table("users", user_schema()), StorageError);
}

TEST(DatabaseTest, PersistsAcrossReopen) {
  TempDir dir;
  {
    Database db(dir.db_path());
    db.create_table("users", user_schema());
    db.insert("users", {"alice", 30, 1.5, Bytes{0xaa}});
    db.insert("users", {"bob", 25, Value(), Value()});
    db.remove("users", Value("bob"));
  }
  Database db(dir.db_path());
  ASSERT_TRUE(db.has_table("users"));
  EXPECT_EQ(db.table("users").size(), 1u);
  const auto row = db.table("users").get(Value("alice"));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[2].as_real(), 1.5);
  EXPECT_EQ((*row)[3].as_blob(), (Bytes{0xaa}));
  EXPECT_FALSE(db.recovered_from_torn_journal());
}

TEST(DatabaseTest, CheckpointCompactsAndPreservesData) {
  TempDir dir;
  {
    Database db(dir.db_path());
    db.create_table("users", user_schema());
    for (int i = 0; i < 20; ++i) {
      db.insert("users", {"u" + std::to_string(i), i, Value(), Value()});
    }
    EXPECT_GT(db.journal_records(), 0u);
    db.checkpoint();
    EXPECT_EQ(db.journal_records(), 0u);
    db.insert("users", {"post", 99, Value(), Value()});
  }
  Database db(dir.db_path());
  EXPECT_EQ(db.table("users").size(), 21u);
  EXPECT_TRUE(db.table("users").contains(Value("post")));
}

TEST(DatabaseTest, OpensV1FilesWithoutGenerationStamp) {
  // Files written before the checkpoint-generation stamp carry the v1
  // magic and no u64 generation. They must still open — snapshot and
  // journal both replay as generation 0 — and the next checkpoint
  // rewrites everything in the current format.
  TempDir dir;
  const auto write_raw = [](const std::string& path, const Bytes& data) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  };
  {
    // v1 snapshot: magic, table count, then per-table schema + rows.
    BufWriter w;
    for (const char c : std::string("AMDB-SNAP-1")) {
      w.u8(static_cast<std::uint8_t>(c));
    }
    w.u32(1);
    w.str("users");
    encode_schema(w, user_schema());
    w.u64(1);
    encode_row(w, {Value("alice"), Value(30), Value(), Value()});
    write_raw(dir.db_path() + ".snapshot", w.data());
  }
  {
    // v1 journal: magic, then one insert record ([len][crc][payload],
    // payload = op 2 (insert) + table + row).
    BufWriter payload;
    payload.u8(2);
    payload.str("users");
    encode_row(payload, {Value("bob"), Value(25), Value(), Value()});
    const Bytes record = payload.take();
    BufWriter w;
    for (const char c : std::string("AMDB-JRNL-1")) {
      w.u8(static_cast<std::uint8_t>(c));
    }
    w.u32(static_cast<std::uint32_t>(record.size()));
    w.u32(crc32(record));
    Bytes journal = w.take();
    journal.insert(journal.end(), record.begin(), record.end());
    write_raw(dir.db_path() + ".journal", journal);
  }

  {
    Database db(dir.db_path());
    EXPECT_FALSE(db.recovered_from_torn_journal());
    EXPECT_FALSE(db.discarded_stale_journal());
    ASSERT_TRUE(db.has_table("users"));
    EXPECT_EQ(db.table("users").size(), 2u);
    EXPECT_TRUE(db.table("users").contains(Value("alice")));
    EXPECT_TRUE(db.table("users").contains(Value("bob")));
    db.checkpoint();  // migrates both files to the stamped format
    db.insert("users", {"carol", 41, Value(), Value()});
  }
  Database reopened(dir.db_path());
  EXPECT_FALSE(reopened.discarded_stale_journal());
  EXPECT_EQ(reopened.table("users").size(), 3u);
  EXPECT_TRUE(reopened.table("users").contains(Value("carol")));
}

TEST(DatabaseTest, TornJournalTailIsDiscarded) {
  TempDir dir;
  {
    Database db(dir.db_path());
    db.create_table("users", user_schema());
    db.insert("users", {"alice", 30, Value(), Value()});
    db.insert("users", {"bob", 25, Value(), Value()});
  }
  // Simulate a crash mid-append: chop bytes off the journal tail.
  const std::string journal = dir.db_path() + ".journal";
  const auto size = fs::file_size(journal);
  fs::resize_file(journal, size - 5);

  Database db(dir.db_path());
  EXPECT_TRUE(db.recovered_from_torn_journal());
  // The first two records (create + alice) survive; bob's insert is torn.
  ASSERT_TRUE(db.has_table("users"));
  EXPECT_TRUE(db.table("users").contains(Value("alice")));
  EXPECT_FALSE(db.table("users").contains(Value("bob")));
}

TEST(DatabaseTest, CorruptJournalRecordStopsReplay) {
  TempDir dir;
  {
    Database db(dir.db_path());
    db.create_table("users", user_schema());
    db.insert("users", {"alice", 30, Value(), Value()});
  }
  // Flip a byte inside the last record's payload -> CRC mismatch.
  const std::string journal = dir.db_path() + ".journal";
  std::fstream f(journal, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-3, std::ios::end);
  f.put('\x7f');
  f.close();

  Database db(dir.db_path());
  EXPECT_TRUE(db.recovered_from_torn_journal());
  EXPECT_TRUE(db.has_table("users"));
  EXPECT_FALSE(db.table("users").contains(Value("alice")));
}

TEST(DatabaseTest, DropAndClearTable) {
  TempDir dir;
  {
    Database db(dir.db_path());
    db.create_table("a", user_schema());
    db.create_table("b", user_schema());
    db.insert("a", {"x", 1, Value(), Value()});
    db.insert("b", {"y", 2, Value(), Value()});
    db.clear_table("a");
    db.drop_table("b");
  }
  Database db(dir.db_path());
  EXPECT_TRUE(db.has_table("a"));
  EXPECT_EQ(db.table("a").size(), 0u);
  EXPECT_FALSE(db.has_table("b"));
}

TEST(DatabaseTest, UpdatePersists) {
  TempDir dir;
  {
    Database db(dir.db_path());
    db.create_table("users", user_schema());
    db.insert("users", {"alice", 30, Value(), Value()});
    EXPECT_TRUE(db.update("users", Value("alice"),
                          {"alice", 55, Value(), Value()}));
    EXPECT_FALSE(
        db.update("users", Value("ghost"), {"ghost", 1, Value(), Value()}));
  }
  Database db(dir.db_path());
  EXPECT_EQ(db.table("users").get(Value("alice"))->at(1).as_int(), 55);
}

TEST(DatabaseTest, RandomizedRoundTripThroughReopen) {
  // Property: any sequence of inserts survives close/reopen byte-for-byte.
  TempDir dir;
  crypto::ChaChaDrbg rng(77);
  std::vector<Row> rows;
  {
    Database db(dir.db_path());
    db.create_table("t", user_schema());
    for (int i = 0; i < 50; ++i) {
      Row row{"key" + std::to_string(i),
              static_cast<std::int64_t>(rng.next_u64() % 1000),
              rng.uniform01(), rng.bytes(rng.uniform(40))};
      db.insert("t", row);
      rows.push_back(std::move(row));
    }
    if (true) db.checkpoint();
    // More writes after the checkpoint land in the journal.
    for (int i = 50; i < 70; ++i) {
      Row row{"key" + std::to_string(i),
              static_cast<std::int64_t>(rng.next_u64() % 1000),
              rng.uniform01(), rng.bytes(rng.uniform(40))};
      db.insert("t", row);
      rows.push_back(std::move(row));
    }
  }
  Database db(dir.db_path());
  EXPECT_EQ(db.table("t").size(), rows.size());
  for (const auto& row : rows) {
    const auto got = db.table("t").get(row[0]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, row);
  }
}

}  // namespace
}  // namespace amnesia::storage
