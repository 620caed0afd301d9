// Per-layer replay.  Nothing inside src/ is instrumented: each layer's
// public functions are called here, on the blocks of the workload's own
// inputs, and timed around the call.  Every replay result is also checked
// against the reference, so a layer that returns wrong data fails the run.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <unistd.h>

#include "easyhps/cache/key.hpp"
#include "easyhps/cache/result_cache.hpp"
#include "easyhps/ckpt/journal.hpp"
#include "easyhps/msg/cluster.hpp"
#include "easyhps/runtime/wire.hpp"
#include "easyhps/serve/service.hpp"
#include "easyhps/store/block_store.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using easyhps::CellRect;
using easyhps::VertexId;
namespace fs = std::filesystem;
namespace wire = easyhps::wire;

/// Every layer is replayed this many times; the median pass is reported.
constexpr int kReplayPasses = 5;
constexpr easyhps::JobId kJob = 1;

/// Accumulates the time of the enclosed scope into `total`.
class Timed {
 public:
  explicit Timed(double& total) : total_(total), start_(Clock::now()) {}
  ~Timed() { total_ += secondsBetween(start_, Clock::now()); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double& total_;
  Clock::time_point start_;
};

CellRect intersect(const CellRect& a, const CellRect& b) {
  const std::int64_t r0 = std::max(a.row0, b.row0);
  const std::int64_t c0 = std::max(a.col0, b.col0);
  const std::int64_t r1 = std::min(a.rowEnd(), b.rowEnd());
  const std::int64_t c1 = std::min(a.colEnd(), b.colEnd());
  if (r1 <= r0 || c1 <= c0) {
    return {};
  }
  return {r0, c0, r1 - r0, c1 - c0};
}

/// A halo rectangle narrowed to the one block that produced it.
struct Piece {
  VertexId source = -1;
  CellRect rect;
};

/// One replay input: the problem, its reference table and the master
/// grid's blocks with the halo pieces each reads and the boundary pieces
/// its successors read (what a peer-to-peer Result ack and the journal
/// carry).
struct Input {
  Input(const InputSpec& spec, std::int64_t partition)
      : problem(makeProblem(spec)),
        dag(easyhps::buildMasterDag(*problem, partition, partition)) {}

  std::shared_ptr<const DpProblem> problem;
  easyhps::PartitionedDag dag;
  easyhps::DenseMatrix<Score> table;
  std::vector<VertexId> order;
  std::vector<std::vector<Piece>> haloPieces;
  std::vector<std::vector<CellRect>> ackPieces;
  std::int64_t activeCells = 0;
  std::int64_t blockCells = 0;
};

Input prepare(const InputSpec& spec, std::int64_t partition) {
  Input in(spec, partition);
  in.table = in.problem->solveReference();
  in.order = in.dag.dag.topologicalOrder();
  const auto blocks = static_cast<std::size_t>(in.dag.vertexCount());
  in.haloPieces.resize(blocks);
  in.ackPieces.resize(blocks);
  const easyhps::BlockGrid& grid = in.dag.grid;
  for (VertexId v = 0; v < in.dag.vertexCount(); ++v) {
    in.blockCells += in.dag.rectOf(v).cellCount();
    for (const CellRect& h : in.problem->haloFor(in.dag.rectOf(v))) {
      for (std::int64_t bi = h.row0 / grid.blockRows();
           bi <= (h.rowEnd() - 1) / grid.blockRows(); ++bi) {
        for (std::int64_t bj = h.col0 / grid.blockCols();
             bj <= (h.colEnd() - 1) / grid.blockCols(); ++bj) {
          const VertexId u = in.dag.vertexAt(bi, bj);
          const CellRect piece =
              u < 0 ? CellRect{} : intersect(h, in.dag.rectOf(u));
          if (piece.cellCount() == 0) {
            continue;
          }
          in.haloPieces[static_cast<std::size_t>(v)].push_back({u, piece});
          auto& acks = in.ackPieces[static_cast<std::size_t>(u)];
          if (std::find(acks.begin(), acks.end(), piece) == acks.end()) {
            acks.push_back(piece);
          }
        }
      }
    }
  }
  in.activeCells = activeCells(*in.problem);
  return in;
}

/// Per-pass totals of every replayed layer, summed over the inputs.
struct Pass {
  double dense = 0, slave = 0, digest = 0, encode = 0, decode = 0,
         send = 0, store = 0, journal = 0, dagBuild = 0, cacheHit = 0;
  double journalBytes = 0;
};

bool replayDense(const Input& in, Pass& pass) {
  easyhps::Window w(CellRect{0, 0, in.problem->rows(), in.problem->cols()},
                    in.problem->boundaryFn());
  {
    Timed t(pass.dense);
    in.problem->computeBlock(w, w.box());
  }
  return matrixDigest(w) == matrixDigest(in.table);
}

bool replaySlaveBlocks(const Input& in, std::int64_t threadPartition,
                       Pass& pass) {
  bool ok = true;
  for (const VertexId v : in.order) {
    const CellRect rect = in.dag.rectOf(v);
    const std::vector<CellRect> halos = in.problem->haloFor(rect);
    std::vector<std::vector<Score>> haloCells;
    for (const CellRect& h : halos) {
      haloCells.push_back(in.table.extract(h));
    }
    std::vector<Score> out;
    {
      Timed t(pass.slave);
      std::vector<CellRect> segments{rect};
      segments.insert(segments.end(), halos.begin(), halos.end());
      easyhps::SparseWindow w(std::move(segments), in.problem->boundaryFn());
      for (std::size_t i = 0; i < halos.size(); ++i) {
        w.inject(halos[i], haloCells[i]);
      }
      const easyhps::PartitionedDag sub =
          in.problem->slaveDagFor(rect, threadPartition, threadPartition);
      for (const VertexId s : sub.dag.topologicalOrder()) {
        in.problem->computeBlockSparse(
            w, easyhps::slaveVertexRect(sub, rect, s));
      }
      out = w.extract(rect);
    }
    ok = ok && out == in.table.extract(rect);
  }
  return ok;
}

bool replayWire(const Input& in, Pass& pass) {
  bool ok = true;
  for (const VertexId v : in.order) {
    const CellRect rect = in.dag.rectOf(v);
    const std::vector<Score> cells = in.table.extract(rect);
    {
      Timed t(pass.digest);
      ok = ok && wire::blockChecksum(v, rect, cells) != 0;
    }
    // Payload structs are filled outside the clock; the encode clock
    // covers the sender's checksums and the encoders.
    wire::ResultPayload result{kJob, v, rect, {}, {}, 0, 0};
    for (const CellRect& edge : in.ackPieces[static_cast<std::size_t>(v)]) {
      result.edges.push_back({edge, in.table.extract(edge)});
    }
    wire::BlockDataPayload block{kJob, v, rect, true, 0, cells};
    easyhps::msg::Payload encodedResult, encodedBlock;
    {
      Timed t(pass.encode);
      result.checksum = wire::blockChecksum(v, rect, cells);
      result.edgesChecksum = wire::resultChecksum(result);
      block.checksum = result.checksum;
      encodedResult = wire::encodeResult(std::move(result));
      encodedBlock = wire::encodeBlockData(std::move(block));
    }
    {
      Timed t(pass.decode);
      const wire::ResultPayload r = wire::decodeResult(encodedResult);
      ok = ok && wire::resultChecksum(r) == r.edgesChecksum;
      wire::ScoreCells data;
      const wire::BlockDataPayload b =
          wire::decodeBlockData(encodedBlock, data);
      ok = ok && wire::blockChecksum(b.vertex, b.rect, data.cells()) ==
                     b.checksum;
    }
  }
  return ok;
}

/// Every block's BlockData payload sent from the owning slave rank to the
/// master across an in-process cluster of the workload's shape.
bool replaySend(const Input& in, int ranks, Pass& pass) {
  std::vector<easyhps::msg::Payload> payloads;
  std::uint64_t sentBytes = 0;
  for (const VertexId v : in.order) {
    const CellRect rect = in.dag.rectOf(v);
    std::vector<Score> cells = in.table.extract(rect);
    const std::uint64_t sum = wire::blockChecksum(v, rect, cells);
    payloads.push_back(wire::encodeBlockData({kJob, v, rect, true, sum,
                                              std::move(cells)}));
    sentBytes += payloads.back().size();
  }
  std::uint64_t receivedBytes = 0;
  {
    Timed t(pass.send);
    easyhps::msg::Cluster::run(ranks, [&](easyhps::msg::Comm& comm) {
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          receivedBytes += comm.recv(easyhps::msg::kAnySource,
                                     wire::kTagBlockData)
                               .payload.size();
        }
        return;
      }
      for (std::size_t i = static_cast<std::size_t>(comm.rank() - 1);
           i < payloads.size(); i += static_cast<std::size_t>(ranks - 1)) {
        comm.send(0, wire::kTagBlockData, std::move(payloads[i]));
      }
    });
  }
  return receivedBytes == sentBytes;
}

bool replayStore(const Input& in, std::uint64_t budget, Pass& pass) {
  std::vector<std::vector<Score>> blocks(in.order.size());
  for (VertexId v = 0; v < in.dag.vertexCount(); ++v) {
    blocks[static_cast<std::size_t>(v)] = in.table.extract(in.dag.rectOf(v));
  }
  easyhps::store::BlockStore store(budget);
  std::vector<Score> halo;
  bool ok = true;
  std::int64_t haloCells = 0;
  {
    Timed t(pass.store);
    for (const VertexId v : in.order) {
      for (const Piece& p : in.haloPieces[static_cast<std::size_t>(v)]) {
        ok = ok && store.extractInto(kJob, p.source, p.rect, halo);
        haloCells += static_cast<std::int64_t>(halo.size());
      }
      ok = ok && store
                     .put(kJob, v, in.dag.rectOf(v),
                          std::move(blocks[static_cast<std::size_t>(v)]))
                     .empty();
    }
  }
  std::int64_t want = 0;
  for (const auto& pieces : in.haloPieces) {
    for (const Piece& p : pieces) {
      want += p.rect.cellCount();
    }
  }
  return ok && haloCells == want;
}

bool replayJournal(const Input& in, const fs::path& dir, Pass& pass) {
  std::vector<easyhps::ckpt::BlockRecord> records;
  for (const VertexId v : in.order) {
    easyhps::ckpt::BlockRecord rec;
    rec.vertex = v;
    rec.owner = 1 + static_cast<int>(v % 3);
    rec.rect = in.dag.rectOf(v);
    rec.checksum = wire::blockChecksum(v, rec.rect, in.table.extract(rec.rect));
    for (const CellRect& edge : in.ackPieces[static_cast<std::size_t>(v)]) {
      rec.pieces.push_back({edge, in.table.extract(edge)});
    }
    records.push_back(std::move(rec));
  }
  fs::remove_all(dir);
  const std::string key = "perfbench";
  const easyhps::ckpt::JobMetaRecord meta{
      key, in.dag.grid.blockRows(), in.dag.grid.blockCols(),
      in.dag.vertexCount(),
      static_cast<std::uint8_t>(easyhps::DataPlaneMode::kPeerToPeer)};
  std::uint64_t bytes = 0;
  {
    Timed t(pass.journal);
    easyhps::ckpt::JournalWriter writer({dir.string(), key}, meta);
    for (auto& rec : records) {
      writer.appendBlock(std::move(rec));
    }
    writer.flushEpoch();
    writer.commit();
    bytes = writer.bytesWritten();
  }
  pass.journalBytes += static_cast<double>(bytes);
  const bool ok = !easyhps::ckpt::loadJournal(dir.string(), key).has_value();
  fs::remove_all(dir);
  return ok && bytes > 0;
}

bool replayDagBuild(const Input& in, Pass& pass) {
  Timed t(pass.dagBuild);
  return in.problem->masterDag(in.dag.grid).vertexCount() ==
         in.dag.vertexCount();
}

bool replayCacheHit(const Input& in, const easyhps::RuntimeConfig& cfg,
                    Pass& pass) {
  const auto key = easyhps::cache::jobKey(*in.problem, cfg);
  if (!key) {
    return false;
  }
  easyhps::Window table(
      CellRect{0, 0, in.problem->rows(), in.problem->cols()},
      in.problem->boundaryFn());
  table.inject(table.box(), in.table.raw());
  easyhps::cache::ResultCache cache(std::int64_t{1} << 40);
  cache.insert(*key, std::move(table), 0);
  std::optional<easyhps::Window> copy;
  {
    // What a serve cache hit pays: the lookup and the copy of the table
    // into the job's outcome.
    Timed t(pass.cacheHit);
    if (const auto hit = cache.find(*key)) {
      copy.emplace(hit->matrix);
    }
  }
  return copy && matrixDigest(*copy) == matrixDigest(in.table);
}

double medianOf(const std::vector<Pass>& passes, double Pass::*field) {
  std::vector<double> xs;
  for (const Pass& p : passes) {
    xs.push_back(p.*field);
  }
  return median(xs);
}

}  // namespace

void replayLayers(const std::vector<InputSpec>& inputs,
                  std::int64_t processPartition,
                  std::int64_t threadPartition, double mcellsPerS,
                  const Options& options, Report& report) {
  const easyhps::RuntimeConfig cfg =
      clusterConfig(processPartition, threadPartition);
  const fs::path dir = fs::path(options.scratchDir) /
                       ("journal-" + std::to_string(getpid()));
  std::vector<Input> prepared;
  std::int64_t activeTotal = 0;
  std::int64_t blockTotal = 0;
  for (const InputSpec& spec : inputs) {
    prepared.push_back(prepare(spec, processPartition));
    activeTotal += prepared.back().activeCells;
    blockTotal += prepared.back().blockCells;
  }

  std::vector<Pass> passes(kReplayPasses);
  const auto check = [&](bool ok, const char* layer) {
    report.tally.record(ok);
    if (!ok) {
      std::fprintf(stderr, "perfbench: replay of %s differs from the "
                           "reference\n", layer);
    }
  };
  for (Pass& pass : passes) {
    for (const Input& in : prepared) {
      check(replayDense(in, pass), "dp dense");
      check(replaySlaveBlocks(in, threadPartition, pass), "dp slave blocks");
      check(replayWire(in, pass), "wire");
      check(replaySend(in, cfg.slaveCount + 1, pass), "msg");
      check(replayStore(in, cfg.storeByteBudget, pass), "store");
      check(replayJournal(in, dir, pass), "ckpt");
      check(replayDagBuild(in, pass), "dag");
      check(replayCacheHit(in, cfg, pass), "cache");
    }
  }

  // Times are per replayed job: the pass total over the inputs divided by
  // their number.  Rates divide cells by time.
  const auto jobs = static_cast<double>(prepared.size());
  const double dense =
      static_cast<double>(activeTotal) / medianOf(passes, &Pass::dense) / 1e6;
  const std::vector<Metric> layers = {
      {"dp.dense_mcells_s", "Mcells/s", dense},
      {"dp.slave_block_s", "s", medianOf(passes, &Pass::slave) / jobs},
      {"dp.efficiency", "ratio", mcellsPerS / dense},
      {"wire.digest_mcells_s", "Mcells/s",
       static_cast<double>(blockTotal) / medianOf(passes, &Pass::digest) / 1e6},
      {"wire.encode_s", "s", medianOf(passes, &Pass::encode) / jobs},
      {"wire.decode_s", "s", medianOf(passes, &Pass::decode) / jobs},
      {"msg.block_send_s", "s", medianOf(passes, &Pass::send) / jobs},
      {"store.put_extract_s", "s", medianOf(passes, &Pass::store) / jobs},
      {"ckpt.journal_s", "s", medianOf(passes, &Pass::journal) / jobs},
      {"ckpt.mb", "MB", medianOf(passes, &Pass::journalBytes) / jobs / 1e6},
      {"dag.build_ms", "ms", medianOf(passes, &Pass::dagBuild) / jobs * 1e3},
      {"cache.hit_ms", "ms", medianOf(passes, &Pass::cacheHit) / jobs * 1e3},
  };
  report.perLayer.insert(report.perLayer.end(), layers.begin(), layers.end());
}

void replayServe(const InputSpec& input, const Expected& want,
                 std::int64_t processPartition, std::int64_t threadPartition,
                 int jobs, Report& report) {
  easyhps::serve::ServiceConfig cfg;
  cfg.runtime = clusterConfig(processPartition, threadPartition);
  cfg.cache.enabled = false;
  const std::shared_ptr<const DpProblem> problem = makeProblem(input);
  std::vector<double> submits, queueWaits, execs, ttfbs;
  {
    easyhps::serve::Service service(cfg);
    for (int i = 0; i < jobs; ++i) {
      const Clock::time_point t0 = Clock::now();
      easyhps::serve::JobTicket ticket = service.submit(problem);
      submits.push_back(secondsBetween(t0, Clock::now()));
      const auto outcome = ticket.wait();
      const bool ok = outcome->state == easyhps::serve::JobState::kDone &&
                      matches(want, outcome->stats.run.tableChecksum,
                              outcome->matrix ? &*outcome->matrix : nullptr);
      report.tally.record(ok);
      queueWaits.push_back(outcome->stats.queueWaitSeconds);
      execs.push_back(outcome->stats.execSeconds);
      if (outcome->stats.timeToFirstBlockSeconds >= 0.0) {
        ttfbs.push_back(outcome->stats.timeToFirstBlockSeconds);
      }
    }
  }
  report.perLayer.push_back(
      {"serve.queue_wait_ms", "ms", median(queueWaits) * 1e3});
  report.perLayer.push_back({"serve.exec_ms", "ms", median(execs) * 1e3});
  report.perLayer.push_back({"serve.ttfb_ms", "ms", median(ttfbs) * 1e3});
  report.perLayer.push_back({"serve.submit_us", "us", median(submits) * 1e6});
}

void addRunStatsLayers(const std::vector<easyhps::RunStats>& runs,
                       Report& report) {
  const auto med = [&](auto field) {
    std::vector<double> xs;
    for (const easyhps::RunStats& r : runs) {
      xs.push_back(static_cast<double>(field(r)));
    }
    return median(xs);
  };
  using S = const easyhps::RunStats&;
  const std::vector<Metric> layers = {
      {"msg.messages", "count", med([](S r) { return r.messages; })},
      {"msg.mb", "MB", med([](S r) { return r.bytes; }) / 1e6},
      {"msg.master_mb", "MB", med([](S r) { return r.bytesViaMaster; }) / 1e6},
      {"msg.p2p_mb", "MB", med([](S r) { return r.bytesPeerToPeer; }) / 1e6},
      {"store.halo_local", "count", med([](S r) { return r.haloLocalHits; })},
      {"store.halo_peer", "count", med([](S r) { return r.haloPeerFetches; })},
      {"store.halo_master", "count",
       med([](S r) { return r.haloMasterFetches; })},
      {"store.peak_mb", "MB", med([](S r) { return r.storePeakBytes; }) / 1e6},
      {"runtime.tasks", "count", med([](S r) { return r.tasks; })},
      {"runtime.stalled_picks", "count",
       med([](S r) { return r.masterStalledPicks; })},
      {"runtime.early_starts", "count",
       med([](S r) { return r.blocksStartedEarly; })},
      {"runtime.overlap_s", "s", med([](S r) { return r.streamOverlapSeconds; })},
      {"sched.imbalance", "ratio", med([](S r) { return r.taskImbalance(); })},
  };
  report.perLayer.insert(report.perLayer.end(), layers.begin(), layers.end());
}

}  // namespace perfbench
