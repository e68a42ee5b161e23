#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "core/backend.hpp"
#include "core/compiled_space.hpp"
#include "core/dataset.hpp"
#include "core/runner.hpp"
#include "io/dataset_file.hpp"
#include "io/dataset_repository.hpp"
#include "io/dataset_view.hpp"
#include "io/dataset_writer.hpp"
#include "kernels/all_kernels.hpp"

namespace bat {
namespace {

namespace fs = std::filesystem;

std::string data_path(const std::string& name) {
  return std::string(BAT_TESTS_DATA_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The golden fixtures' space: p in {1,2} x q in {10,20}, indices 0..3
/// all valid.
core::SearchSpace golden_space() {
  core::ParamSpace params;
  params.add(core::Parameter("p", {1, 2}));
  params.add(core::Parameter("q", {10, 20}));
  return core::SearchSpace(std::move(params), core::ConstraintSet{});
}

/// In-memory dataset exercising every storage corner: duplicate
/// indices (first row must win), both invalid statuses, infinite times.
core::Dataset tricky_dataset() {
  core::Dataset ds("tricky", "dev", {"p", "q"});
  ds.add(0, core::Config{1, 10}, core::Measurement::valid(2.5));
  ds.add(1, core::Config{1, 20}, core::Measurement::valid(1.25));
  ds.add(1, core::Config{1, 20}, core::Measurement::valid(9.75));  // dup
  ds.add(2, core::Config{2, 10},
         core::Measurement::invalid(core::MeasureStatus::kInvalidDevice));
  ds.add(3, core::Config{2, 20}, core::Measurement::valid(4.125));
  ds.add(3, core::Config{2, 20},
         core::Measurement::invalid(core::MeasureStatus::kInvalidConstraint));
  return ds;
}

void expect_datasets_equal(const core::Dataset& a, const core::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.benchmark_name(), b.benchmark_name());
  EXPECT_EQ(a.device_name(), b.device_name());
  EXPECT_EQ(a.param_names(), b.param_names());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a.config_index(r), b.config_index(r)) << "row " << r;
    EXPECT_EQ(a.config(r), b.config(r)) << "row " << r;
    EXPECT_EQ(a.status(r), b.status(r)) << "row " << r;
    if (std::isfinite(a.time_ms(r)) || std::isfinite(b.time_ms(r))) {
      EXPECT_DOUBLE_EQ(a.time_ms(r), b.time_ms(r)) << "row " << r;
    } else {
      EXPECT_EQ(std::isinf(a.time_ms(r)), std::isinf(b.time_ms(r)))
          << "row " << r;
    }
  }
}

// ------------------------------------------------ binary round trips --

TEST(DatasetWriterView, RoundTripPreservesEverything) {
  const auto ds = tricky_dataset();
  const auto path = temp_path("roundtrip.bin");
  // chunk_rows = 3 forces two chunks (one full, one partial tail).
  io::save_dataset(path, ds, io::DatasetFormat::kBinary, 3);

  const auto view = io::DatasetView::open(path);
  EXPECT_EQ(view->benchmark_name(), "tricky");
  EXPECT_EQ(view->device_name(), "dev");
  EXPECT_EQ(view->param_names(), ds.param_names());
  EXPECT_EQ(view->size(), ds.size());
  EXPECT_EQ(view->num_chunks(), 2u);
  EXPECT_EQ(view->rows_in_chunk(0), 3u);
  EXPECT_EQ(view->rows_in_chunk(1), 3u);
  EXPECT_EQ(view->num_valid(), ds.num_valid());
  EXPECT_DOUBLE_EQ(view->best_time(), ds.best_time());
  EXPECT_TRUE(view->verify_crc());
  for (std::size_t r = 0; r < ds.size(); ++r) {
    EXPECT_EQ(view->config_index(r), ds.config_index(r));
    EXPECT_EQ(view->status(r), ds.status(r));
    core::Config config;
    view->config_into(r, config);
    EXPECT_EQ(config, ds.config(r));
  }
  // Times round-trip bit-exact (including the infinities).
  EXPECT_EQ(view->time_ms(1), 1.25);
  EXPECT_TRUE(std::isinf(view->time_ms(3)));

  auto materialized = view->materialize();
  expect_datasets_equal(materialized, ds);
  EXPECT_EQ(materialized.source(), path);
}

TEST(DatasetWriterView, EmptyArchiveRoundTrips) {
  const auto path = temp_path("empty.bin");
  {
    io::DatasetWriter writer(path, "none", "dev", {"p"});
    writer.finalize();
  }
  const auto view = io::DatasetView::open(path);
  EXPECT_EQ(view->size(), 0u);
  EXPECT_EQ(view->num_valid(), 0u);
  EXPECT_TRUE(view->verify_crc());
  EXPECT_THROW((void)view->best_time(), std::runtime_error);
}

TEST(DatasetWriterView, AppendAfterFinalizeThrows) {
  const auto path = temp_path("finalized.bin");
  io::DatasetWriter writer(path, "b", "d", {"p"});
  writer.append(0, core::Config{1}, core::Measurement::valid(1.0));
  writer.finalize();
  EXPECT_THROW(
      writer.append(1, core::Config{1}, core::Measurement::valid(2.0)),
      std::logic_error);
}

// ----------------------------------------------- out-of-core sweeping --

// The acceptance scenario: a space of >100k configurations streams
// through a writer whose whole memory budget is a few hundred rows —
// peak buffered rows must stay at the cap while the archive grows far
// past it.
TEST(DatasetWriterView, StreamSweepHasBoundedMemory) {
  const auto bench = kernels::make("hotspot");
  ASSERT_GT(bench->space().cardinality(), 100'000u);  // 2.22e7: streamed

  constexpr std::size_t kCap = 512;
  constexpr std::size_t kRows = 6'000;
  const auto path = temp_path("hotspot_stream.bin");
  io::DatasetWriter writer(path, "hotspot", bench->device_name(0),
                           bench->space().params().param_names(),
                           io::WriterOptions{kCap});
  const auto rows =
      core::Runner::stream_sampled(*bench, 0, kRows, 99, writer.sink(), 1024);
  writer.finalize();

  EXPECT_EQ(rows, kRows);
  EXPECT_EQ(writer.rows_written(), kRows);
  EXPECT_LE(writer.peak_buffered_rows(), kCap);  // the memory budget held

  // The streamed archive is row-identical to the in-memory builder.
  const auto view = io::DatasetView::open(path);
  ASSERT_EQ(view->size(), kRows);
  const auto reference = core::Runner::run_sampled(*bench, 0, kRows, 99);
  ASSERT_EQ(reference.size(), kRows);
  for (const std::size_t r :
       {std::size_t{0}, kRows / 2, kRows - 1}) {
    EXPECT_EQ(view->config_index(r), reference.config_index(r));
    EXPECT_EQ(view->status(r), reference.status(r));
    if (reference.row_ok(r)) {
      EXPECT_DOUBLE_EQ(view->time_ms(r), reference.time_ms(r));
    }
  }
}

TEST(Runner, StreamExhaustiveMatchesRunExhaustive) {
  const auto bench = kernels::make("pnpoly");
  const auto reference = core::Runner::run_exhaustive(*bench, 0);
  core::Dataset streamed("pnpoly", bench->device_name(0),
                         bench->space().params().param_names());
  const auto rows = core::Runner::stream_exhaustive(
      *bench, 0,
      [&](core::ConfigIndex index, const core::Config& config,
          const core::Measurement& m) { streamed.add(index, config, m); },
      777);  // batch size unrelated to the space size
  EXPECT_EQ(rows, reference.size());
  expect_datasets_equal(streamed, reference);
}

// ----------------------------------------------------- writer resume --

TEST(DatasetWriter, ResumeContinuesIdenticalArchive) {
  const auto ds = core::Runner::run_exhaustive(*kernels::make("nbody"), 0);
  ASSERT_GE(ds.size(), 20u);

  // Reference: every row in one sitting.
  const auto full_path = temp_path("resume_full.bin");
  io::save_dataset(full_path, ds, io::DatasetFormat::kBinary, 8);

  // Same rows with a finalize + resume in the middle (split not on a
  // chunk boundary, so a partial tail chunk must be reloaded).
  const auto resumed_path = temp_path("resume_split.bin");
  const std::size_t split = 8 * 2 + 3;
  {
    io::DatasetWriter writer(resumed_path, ds.benchmark_name(),
                             ds.device_name(), ds.param_names(),
                             io::WriterOptions{8});
    for (std::size_t r = 0; r < split; ++r) {
      writer.append(ds.config_index(r), ds.config(r),
                    core::Measurement{ds.time_ms(r), ds.status(r)});
    }
    writer.finalize();
  }
  {
    auto writer = io::DatasetWriter::resume(resumed_path);
    EXPECT_EQ(writer.rows_written(), split);
    EXPECT_EQ(writer.chunk_rows(), 8u);
    EXPECT_EQ(writer.buffered_rows(), split % 8);
    for (std::size_t r = split; r < ds.size(); ++r) {
      writer.append(ds.config_index(r), ds.config(r),
                    core::Measurement{ds.time_ms(r), ds.status(r)});
    }
    writer.finalize();
  }
  EXPECT_EQ(read_bytes(resumed_path), read_bytes(full_path));
}

TEST(DatasetWriter, ResumeRejectsUnfinalizedOrCorruptFiles) {
  const auto path = temp_path("resume_bad.bin");
  {
    io::DatasetWriter writer(path, "b", "d", {"p"}, io::WriterOptions{4});
    for (int r = 0; r < 6; ++r) {
      writer.append(static_cast<core::ConfigIndex>(r), core::Config{1},
                    core::Measurement::valid(1.0 + r));
    }
    writer.finalize();
  }
  // Chop the footer: no longer resumable (or openable).
  const auto bytes = read_bytes(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - io::kFooterBytes));
  }
  EXPECT_THROW((void)io::DatasetWriter::resume(path), std::invalid_argument);
  EXPECT_THROW((void)io::DatasetView::open(path), std::invalid_argument);
}

// ------------------------------------------------ corruption checks --

TEST(DatasetView, CorruptPayloadFailsCrcVerification) {
  const auto path = temp_path("corrupt.bin");
  io::save_dataset(path, tricky_dataset(), io::DatasetFormat::kBinary, 4);
  ASSERT_TRUE(io::DatasetView::open(path)->verify_crc());

  auto bytes = read_bytes(path);
  bytes[bytes.size() - io::kFooterBytes - 9] ^= 0x40;  // flip a payload bit
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  // Open stays O(1) (no payload scan) — the explicit check catches it.
  EXPECT_FALSE(io::DatasetView::open(path)->verify_crc());
}

// --------------------------------------------------- golden fixtures --

// The golden pair is checked into tests/data/: a canonical CSV and the
// binary archive converted from it. Both must load, agree row-for-row,
// and keep first-row-wins semantics when replayed.
TEST(GoldenFixtures, CsvAndBinaryAgree) {
  const auto csv = io::load_dataset(data_path("golden_small.csv"));
  const auto bin = io::load_dataset(data_path("golden_small.bin"));
  expect_datasets_equal(csv, bin);
  EXPECT_EQ(csv.size(), 6u);
  EXPECT_EQ(csv.num_valid(), 4u);  // two of the six rows are invalid
}

TEST(GoldenFixtures, FirstRowWinsAcrossFormatsAndBackends) {
  const auto space = golden_space();
  const auto csv = io::load_dataset(data_path("golden_small.csv"));
  core::ReplayBackend from_csv(space, csv);
  const auto bin = io::load_dataset(data_path("golden_small.bin"));
  core::ReplayBackend from_bin(space, bin);
  for (core::ConfigIndex index = 0; index < 4; ++index) {
    const core::ConfigIndex batch[1] = {index};
    const auto a = from_csv.evaluate_batch(batch).front();
    const auto b = from_bin.evaluate_batch(batch).front();
    EXPECT_EQ(a.status, b.status) << "index " << index;
    EXPECT_EQ(a.objective(), b.objective()) << "index " << index;
  }
  // Duplicate index 1: the first row (1.25) wins, in both formats.
  EXPECT_DOUBLE_EQ(from_csv.evaluate(1).time_ms, 1.25);
  EXPECT_DOUBLE_EQ(from_bin.evaluate(1).time_ms, 1.25);
  // Duplicate index 3: first row is valid (4.125), the invalid dup loses.
  EXPECT_TRUE(from_bin.evaluate(3).ok());
  EXPECT_DOUBLE_EQ(from_bin.evaluate(3).time_ms, 4.125);
}

// Every checked-in CSV fixture must survive csv -> binary -> csv with
// bit-identical text (the fixtures are canonical to_csv output).
TEST(GoldenFixtures, CsvBinaryCsvIsBitIdentical) {
  for (const char* name : {"golden_small.csv", "hotspot_sample.csv"}) {
    const auto original = read_bytes(data_path(name));
    const auto ds = io::load_dataset(data_path(name));
    const auto bin = temp_path(std::string("rt_") + name + ".bin");
    io::save_dataset(bin, ds, io::DatasetFormat::kBinary);
    EXPECT_EQ(io::DatasetView::open(bin)->materialize().to_csv(), original)
        << name;
  }
}

// ------------------------------------------- CSV error reporting --

TEST(DatasetCsv, LoadErrorsNamePathLineAndCell) {
  const auto path = data_path("malformed_cell.csv");
  try {
    (void)core::Dataset::load_csv(path);
    FAIL() << "malformed fixture parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // The bad cell sits on source line 6 (a blank line 5 precedes it —
    // line numbers must count lines, not parsed rows).
    EXPECT_NE(what.find(path + ":6"), std::string::npos) << what;
    EXPECT_NE(what.find("'x7'"), std::string::npos) << what;
    EXPECT_NE(what.find("column 'p'"), std::string::npos) << what;
  }
}

TEST(DatasetCsv, CellCountErrorsNameLine) {
  const std::string text =
      "#benchmark,b\n#device,d\nconfig_index,p,time_ms,status\n1,2,3\n";
  try {
    (void)core::Dataset::from_csv(text, "inline.csv");
    FAIL() << "short row parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("inline.csv:4"), std::string::npos) << what;
    EXPECT_NE(what.find("3 cells, expected 4"), std::string::npos) << what;
  }
}

TEST(DatasetCsv, BadTimeCellNamesColumn) {
  const std::string text =
      "#benchmark,b\n#device,d\nconfig_index,p,time_ms,status\n"
      "1,2,fast,0\n";
  try {
    (void)core::Dataset::from_csv(text, "t.csv");
    FAIL() << "bad time parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t.csv:4"), std::string::npos) << what;
    EXPECT_NE(what.find("'fast'"), std::string::npos) << what;
    EXPECT_NE(what.find("column 'time_ms'"), std::string::npos) << what;
  }
}

TEST(DatasetCsv, OutOfRangeStatusRejected) {
  const std::string text =
      "#benchmark,b\n#device,d\nconfig_index,p,time_ms,status\n1,2,3.5,7\n";
  try {
    (void)core::Dataset::from_csv(text, "s.csv");
    FAIL() << "status 7 parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("s.csv:4"), std::string::npos) << what;
    EXPECT_NE(what.find("out-of-range status cell"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'7'"), std::string::npos) << what;
  }
}

// ------------------------------------- stale-schema replay warning --

TEST(ReplaySchemaHint, DistinguishesStaleSchemaFromForeignPath) {
  EXPECT_EQ(core::replay_schema_hint({"a", "b"}, {"a", "b"}), "");
  const auto reordered = core::replay_schema_hint({"a", "b"}, {"b", "a"});
  EXPECT_NE(reordered.find("stale"), std::string::npos);
  EXPECT_NE(reordered.find("order mismatch"), std::string::npos);
  const auto resized = core::replay_schema_hint({"a", "b"}, {"a"});
  EXPECT_NE(resized.find("1 parameters"), std::string::npos);
}

TEST(ReplayBackend, FallbackWarningNamesStaleSchema) {
  const auto bench = kernels::make("gemm");
  const auto& space = bench->space();
  auto names = space.params().param_names();
  std::swap(names.front(), names.back());  // stale: reordered schema

  // A "stale archive": rows indexed under the swapped parameter order,
  // including one index this space considers invalid.
  core::Dataset ds("gemm", "RTX_3090", names);
  core::ConfigIndex foreign = 0;
  while (space.compiled().is_valid_index(foreign)) ++foreign;
  core::Config config;
  space.params().decode_into(foreign, config);
  ds.add(foreign, config, core::Measurement::valid(1.0));

  std::vector<std::string> warnings;
  common::set_log_sink([&](common::LogLevel level, const std::string& msg) {
    if (level == common::LogLevel::kWarn) warnings.push_back(msg);
  });
  core::ReplayBackend backend(space, ds);
  common::set_log_sink(nullptr);

  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("outside this search space's valid set"),
            std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[0].find("stale"), std::string::npos) << warnings[0];
  EXPECT_NE(warnings[0].find("order mismatch"), std::string::npos)
      << warnings[0];
}

// ----------------------------------------------- dataset repository --

TEST(DatasetRepository, ResolvesMemoryThenDiskThenSweep) {
  const auto dir = temp_path("repo_cache");
  fs::remove_all(dir);

  const auto bench = kernels::make("pnpoly");
  const std::string device = bench->device_name(0);

  // 1) Nothing anywhere: get() sweeps and persists a binary archive.
  io::DatasetRepository repo(dir);
  EXPECT_EQ(repo.find("pnpoly", device), nullptr);
  const auto swept = repo.get(*bench, 0);
  ASSERT_NE(swept, nullptr);
  EXPECT_EQ(swept->size(), bench->space().count_constrained());
  EXPECT_TRUE(fs::exists(dir + "/pnpoly_" + device + ".bin"));

  // Same key resolves to the same shared entry (one sweep, shared).
  EXPECT_EQ(repo.get(*bench, 0).get(), swept.get());

  // 2) A fresh repository over the same dir resolves from disk.
  io::DatasetRepository second(dir);
  const auto from_disk = second.find("pnpoly", device);
  ASSERT_NE(from_disk, nullptr);
  expect_datasets_equal(*from_disk, *swept);
}

TEST(DatasetRepository, LoadFileRegistersUnderOwnIdentity) {
  io::DatasetRepository repo;
  const auto loaded = repo.load_file(data_path("golden_small.csv"));
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(repo.find("golden", "testdev").get(), loaded.get());
}

// --------------------------------------------- format sniff helpers --

TEST(DatasetFile, SniffsContentNotExtension) {
  // A binary archive behind a .csv name must still sniff as binary.
  const auto disguised = temp_path("disguised.csv");
  io::save_dataset(disguised, tricky_dataset(), io::DatasetFormat::kBinary);
  EXPECT_EQ(io::sniff_format(disguised), io::DatasetFormat::kBinary);
  expect_datasets_equal(io::load_dataset(disguised), tricky_dataset());

  EXPECT_EQ(io::format_for_path("x/y.bin"), io::DatasetFormat::kBinary);
  EXPECT_EQ(io::format_for_path("x/y.BIN"), io::DatasetFormat::kBinary);
  EXPECT_EQ(io::format_for_path("x/y.csv"), io::DatasetFormat::kCsv);
  EXPECT_EQ(io::format_for_path("no_extension"), io::DatasetFormat::kCsv);
}

// ------------------------------------------------- csv line numbers --

TEST(CsvReader, ParseRowsTracksSourceLines) {
  const auto rows = common::CsvReader::parse_rows("a,b\n\nc\n\n\nd,e\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].line, 1u);
  EXPECT_EQ(rows[1].line, 3u);
  EXPECT_EQ(rows[2].line, 6u);
  EXPECT_EQ(rows[2].cells, (std::vector<std::string>{"d", "e"}));
}

}  // namespace
}  // namespace bat
