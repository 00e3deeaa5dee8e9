#include "tilo/exec/run.hpp"

#include <cmath>
#include <coroutine>
#include <limits>
#include <memory>
#include <vector>

#include "tilo/exec/coro.hpp"
#include "tilo/exec/regions.hpp"
#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

using lat::Box;
using lat::Vec;
using util::i64;

/// Per-rank distributed state.  `extended` grows `owned` on its low sides by
/// the maximum dependence component, so every read p - d of an owned point p
/// is an in-array access: cells outside the domain hold boundary values,
/// cells owned by neighbors are filled by received messages.
struct RankState {
  Box owned;
  Box extended;
  std::vector<double> values;  // functional mode only, over `extended`

  double& at(const Vec& p) {
    return values[static_cast<std::size_t>(extended.linear_index(p))];
  }
  double get(const Vec& p) const {
    return values[static_cast<std::size_t>(extended.linear_index(p))];
  }
};

/// A comm list for one tile: a borrowed view of the timed table entry, or
/// (functional runs) the tile's own freshly computed region lists.  Named
/// locals of this type keep owned lists alive across coroutine suspension
/// points.
struct CommView {
  std::vector<TileComm> owned;
  const std::vector<TileComm>* borrowed = nullptr;

  const std::vector<TileComm>& items() const {
    return borrowed ? *borrowed : owned;
  }
};

struct Ctx {
  const loop::LoopNest* nest = nullptr;
  const TilePlan* plan = nullptr;
  RunOptions opts;
  std::unique_ptr<msg::Cluster> cluster;
  std::vector<RankState>* ranks = nullptr;
  const CommSummaries* comm = nullptr;  // timed runs only
  ProgramErrorSink sink;
  int bpe = 4;
  i64 ndirs = 1;
  int completed_ranks = 0;

  ProgramErrorSink& error_sink() { return sink; }
};

// Timed runs read the (offset, points, dir) summaries from the workspace's
// class table; functional runs need the absolute region boxes and compute
// each tile's lists on the fly (every tile is visited once per run).
CommView ins_of(const Ctx& ctx, const Vec& t) {
  CommView v;
  if (ctx.opts.functional)
    v.owned = incoming(ctx.plan->space, t);
  else
    v.borrowed = &ctx.comm->incoming(t);
  return v;
}

CommView outs_of(const Ctx& ctx, const Vec& t) {
  CommView v;
  if (ctx.opts.functional)
    v.owned = outgoing(ctx.plan->space, t);
  else
    v.borrowed = &ctx.comm->outgoing(t);
  return v;
}

/// Message tags are unique per (consumer tile, direction).
i64 tag_for(const Ctx& ctx, const Vec& consumer_tile, std::size_t dir) {
  const i64 lin = ctx.plan->space.tile_space().linear_index(consumer_tile);
  return util::checked_add(util::checked_mul(lin, ctx.ndirs),
                           static_cast<i64>(dir));
}

void init_rank_state(Ctx& ctx, int rank) {
  const auto& mapping = ctx.plan->mapping;
  const auto& tiling = ctx.plan->space.tiling();
  const Box tiles = mapping.tiles_of_rank(rank);
  RankState& rs = (*ctx.ranks)[static_cast<std::size_t>(rank)];
  // A rank can own no tiles when the block distribution does not divide
  // evenly (e.g. 4 tile columns over 3 processors); it then simply idles.
  if (tiles.empty()) {
    rs.owned = tiles;
    rs.extended = tiles;
    rs.values.clear();
    return;
  }
  const Box owned = Box(tiling.tile_origin(tiles.lo()),
                        tiling.tile_box(tiles.hi()).hi())
                        .intersect(ctx.plan->space.domain());
  TILO_ASSERT(!owned.empty(), "rank ", rank, " owns no iterations");

  Vec elo = owned.lo();
  for (std::size_t d = 0; d < elo.size(); ++d)
    elo[d] -= ctx.nest->deps().max_component(d);
  const Box extended(elo, owned.hi());

  rs.owned = owned;
  rs.extended = extended;
  if (ctx.opts.functional) {
    const loop::Kernel& kernel = ctx.nest->kernel();
    const Box& domain = ctx.plan->space.domain();
    // assign() reuses the workspace's value buffer capacity across runs.
    rs.values.assign(static_cast<std::size_t>(extended.volume()),
                     std::numeric_limits<double>::quiet_NaN());
    // Ghost cells outside the domain hold the boundary values, so every
    // kernel input is a plain array read.  In-domain cells start as NaN:
    // a read of a never-filled cell poisons the result visibly.
    extended.for_each_point([&](const Vec& p) {
      if (!domain.contains(p)) rs.at(p) = kernel.boundary(p);
    });
  } else {
    rs.values.clear();
  }
}

/// CPU time of tile t's computation: its iterations (the full clipped box
/// volume, or the TileCostModel's refinement for non-uniform workloads) at
/// its working set — its own cells plus the low-side halo slabs it reads
/// (the paper's Fig. 6 working set).  The box's extents come from per-axis
/// arithmetic; only the cost-model hook gets a Box.
sim::Time compute_tile_ns(const Ctx& ctx, const Vec& t) {
  const tile::TiledSpace& space = ctx.plan->space;
  TILO_REQUIRE(space.tile_space().contains(t), "tile ", t.str(),
               " outside tile space ", space.tile_space().str());
  const auto extent = [&](std::size_t d) {
    const auto [lo, hi] = space.axis_bounds(d, t[d]);
    return util::checked_add(util::checked_sub(hi, lo), 1);
  };
  i64 volume = 1;
  for (std::size_t d = 0; d < t.size(); ++d)
    volume = util::checked_mul(volume, extent(d));
  i64 cells = volume;
  for (std::size_t d = 0; d < t.size(); ++d) {
    const i64 halo = ctx.nest->deps().max_component(d);
    if (halo > 0)
      cells = util::checked_add(
          cells, util::checked_mul(volume / extent(d), halo));
  }
  const i64 iterations =
      ctx.opts.tile_costs ? ctx.opts.tile_costs->tile_iterations(
                                t, space.tile_iterations(t))
                          : volume;
  return ctx.cluster->compute_ns(iterations,
                                 util::checked_mul(cells, ctx.bpe));
}

/// Bytes of the message consumed by `consumer_tile` for comm record
/// `comm`.  Both ends of a message route through the consumer's
/// coordinate, so sender and receiver always agree on its size.  The
/// hook-free path never touches tile geometry (the hot path is exactly the
/// historical constant-surface expression).
i64 message_bytes(const Ctx& ctx, const Vec& consumer_tile,
                  const TileComm& comm) {
  i64 points = comm.points;
  if (ctx.opts.tile_costs)
    points = ctx.opts.tile_costs->message_points(
        consumer_tile, ctx.plan->space.tile_iterations(consumer_tile),
        comm.offset, comm.points);
  return util::checked_mul(points, ctx.bpe);
}

void compute_tile_values(Ctx& ctx, RankState& rs, const Box& box) {
  const auto& deps = ctx.nest->deps();
  const loop::Kernel& kernel = ctx.nest->kernel();
  std::vector<double> inputs(deps.size());
  box.for_each_point([&](const Vec& p) {
    for (std::size_t i = 0; i < deps.size(); ++i)
      inputs[i] = rs.at(p - deps[i]);
    rs.at(p) = kernel.apply(p, inputs);
  });
}

msg::Payload encode_payload(const RankState& rs,
                            const std::vector<CommRegion>& regions) {
  auto data = std::make_shared<std::vector<double>>();
  data->reserve(static_cast<std::size_t>(region_points(regions)));
  for (const CommRegion& r : regions) {
    r.points.for_each_point(
        [&](const Vec& p) { data->push_back(rs.get(p)); });
  }
  return msg::Payload{std::move(data)};
}

void apply_payload(RankState& rs, const std::vector<CommRegion>& regions,
                   const msg::Payload& payload) {
  if (!payload.has_data()) return;  // timed mode
  std::size_t off = 0;
  for (const CommRegion& r : regions) {
    r.points.for_each_point([&](const Vec& p) {
      TILO_ASSERT(off < payload.data->size(), "payload shorter than region");
      rs.at(p) = (*payload.data)[off++];
    });
  }
  TILO_ASSERT(off == payload.data->size(), "payload longer than region");
}

/// The paper's blocking ProcB program (Section 5 pseudocode): for every
/// owned tile, in column-major k order: blocking-receive all inbound
/// messages, compute, blocking-send all outbound messages.
RankProgram blocking_program(Ctx& ctx, int rank) {
  msg::Endpoint& ep = ctx.cluster->node(rank);
  const tile::TiledSpace& space = ctx.plan->space;
  const sched::ProcessorMapping& mapping = ctx.plan->mapping;
  RankState& rs = (*ctx.ranks)[static_cast<std::size_t>(rank)];
  const std::size_t md = ctx.plan->mapped_dim;
  const i64 klo = space.tile_space().lo()[md];
  const i64 khi = space.tile_space().hi()[md];

  // Temporaries are hoisted into named locals before every loop that
  // crosses a suspension point (GCC 12 mishandles lifetime-extended
  // range-for temporaries in coroutine frames).  The tile coordinates live
  // in the frame and are updated in place: stepping through tiles and
  // messages builds no temporary Vec.
  const std::vector<Vec> columns = mapping.columns_of_rank(rank);
  Vec t;     // the tile being executed
  Vec peer;  // the other end of one message
  for (const Vec& col : columns) {
    t = col;
    for (i64 k = klo; k <= khi; ++k) {
      t[md] = k;

      // Receive phase: block until each message is on the wire-side done,
      // then pay the receive pipeline on the CPU (no overlap, Fig. 7).
      const CommView ins = ins_of(ctx, t);
      for (const TileComm& in : ins.items()) {
        peer = t;
        peer -= in.offset;
        const i64 src_rank = mapping.rank_of_tile(peer);
        if (src_rank == rank) continue;
        auto h = ep.irecv(static_cast<int>(src_rank),
                          tag_for(ctx, t, in.dir));
        co_await RecvReadyAwait{*ctx.cluster, rank, h};
        const i64 bytes = message_bytes(ctx, t, in);
        co_await CpuAwait{ep,
                          ctx.cluster->half_wire_ns(bytes) +
                              ctx.cluster->fill_kernel_ns(bytes),
                          obs::Phase::kKernelRecv};
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiRecv};
        if (ctx.opts.functional) apply_payload(rs, in.regions, h->payload);
      }

      // Compute phase.
      co_await CpuAwait{ep, compute_tile_ns(ctx, t), obs::Phase::kCompute};
      if (ctx.opts.functional)
        compute_tile_values(ctx, rs, space.tile_iterations(t));

      // Send phase: the whole send pipeline runs on the CPU.
      const CommView outs = outs_of(ctx, t);
      for (const TileComm& out : outs.items()) {
        peer = t;
        peer += out.offset;
        const i64 dst_rank = mapping.rank_of_tile(peer);
        if (dst_rank == rank) continue;
        const i64 bytes = message_bytes(ctx, peer, out);
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiSend};
        co_await CpuAwait{ep, ctx.cluster->fill_kernel_ns(bytes),
                          obs::Phase::kKernelSend};
        co_await CpuAwait{ep, ctx.cluster->half_wire_ns(bytes),
                          obs::Phase::kWire};
        msg::Payload payload;
        if (ctx.opts.functional) payload = encode_payload(rs, out.regions);
        ep.post_blocking(static_cast<int>(dst_rank),
                         tag_for(ctx, peer, out.dir),
                         bytes, std::move(payload));
      }
    }
  }
  ++ctx.completed_ranks;
}

/// The paper's nonblocking ProcNB program (Section 5 pseudocode): at step k
/// send the results of tile k-1, post receives for tile k+1, compute tile k,
/// then wait on all handles — the pipelined overlapping schedule of Fig. 2.
RankProgram nonblocking_program(Ctx& ctx, int rank) {
  msg::Endpoint& ep = ctx.cluster->node(rank);
  const tile::TiledSpace& space = ctx.plan->space;
  const sched::ProcessorMapping& mapping = ctx.plan->mapping;
  RankState& rs = (*ctx.ranks)[static_cast<std::size_t>(rank)];
  const std::size_t md = ctx.plan->mapped_dim;
  const i64 klo = space.tile_space().lo()[md];
  const i64 khi = space.tile_space().hi()[md];

  struct PendingRecv {
    std::shared_ptr<msg::RecvHandle> handle;
    const TileComm* comm;
    i64 bytes = 0;  ///< message size, resolved at post time (consumer tile)
  };

  // As in blocking_program: named frame locals, updated in place.
  const std::vector<Vec> columns = mapping.columns_of_rank(rank);
  Vec t;     // tile k
  Vec step;  // tile k-1 (whose results ship) or k+1 (whose data is posted)
  Vec peer;  // the other end of one message
  std::vector<PendingRecv> pending;
  std::vector<std::shared_ptr<msg::SendHandle>> sends;
  for (const Vec& col : columns) {
    t = col;

    // Pipeline prologue: fetch the first tile's inbound data.
    {
      t[md] = klo;
      const CommView ins = ins_of(ctx, t);
      for (const TileComm& in : ins.items()) {
        peer = t;
        peer -= in.offset;
        const i64 src_rank = mapping.rank_of_tile(peer);
        if (src_rank == rank) continue;
        auto h = ep.irecv(static_cast<int>(src_rank),
                          tag_for(ctx, t, in.dir));
        pending.push_back(
            PendingRecv{std::move(h), &in, message_bytes(ctx, t, in)});
      }
      for (PendingRecv& pr : pending) {
        co_await RecvReadyAwait{*ctx.cluster, rank, pr.handle};
        const i64 bytes = pr.bytes;
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiRecv};
        // Imperfect overlap: the offloaded receive steals CPU cycles.
        // Guarded so ideal models (stall == 0) leave the trace untouched.
        const sim::Time rstall = ctx.cluster->recv_interference_ns(bytes);
        if (rstall > 0)
          co_await CpuAwait{ep, rstall, obs::Phase::kKernelRecv};
        if (ctx.opts.functional)
          apply_payload(rs, pr.comm->regions, pr.handle->payload);
      }
      pending.clear();
    }

    for (i64 k = klo; k <= khi; ++k) {
      t[md] = k;

      // 1. Nonblocking sends of tile (k-1)'s results (A1 on the CPU, the
      //    rest of the pipeline on the DMA channel).
      if (k > klo) {
        step = t;
        step[md] = k - 1;
        const CommView outs = outs_of(ctx, step);
        for (const TileComm& out : outs.items()) {
          peer = step;
          peer += out.offset;
          const i64 dst_rank = mapping.rank_of_tile(peer);
          if (dst_rank == rank) continue;
          const i64 bytes = message_bytes(ctx, peer, out);
          co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                            obs::Phase::kFillMpiSend};
          msg::Payload payload;
          if (ctx.opts.functional) payload = encode_payload(rs, out.regions);
          sends.push_back(ep.isend(
              static_cast<int>(dst_rank),
              tag_for(ctx, peer, out.dir), bytes,
              std::move(payload)));
          // Imperfect overlap: the offloaded send steals CPU cycles.
          const sim::Time sstall = ctx.cluster->send_interference_ns(bytes);
          if (sstall > 0)
            co_await CpuAwait{ep, sstall, obs::Phase::kKernelSend};
        }
      }

      // 2. Post receives for tile (k+1)'s data.  The view lives until the
      //    pending waits complete at the end of this iteration.
      CommView next_ins;
      if (k < khi) {
        step = t;
        step[md] = k + 1;
        next_ins = ins_of(ctx, step);
        for (const TileComm& in : next_ins.items()) {
          peer = step;
          peer -= in.offset;
          const i64 src_rank = mapping.rank_of_tile(peer);
          if (src_rank == rank) continue;
          auto h = ep.irecv(static_cast<int>(src_rank),
                            tag_for(ctx, step, in.dir));
          pending.push_back(
              PendingRecv{std::move(h), &in, message_bytes(ctx, step, in)});
        }
      }

      // 3. Compute tile k while the DMA channels move data.
      co_await CpuAwait{ep, compute_tile_ns(ctx, t), obs::Phase::kCompute};
      if (ctx.opts.functional)
        compute_tile_values(ctx, rs, space.tile_iterations(t));

      // 4. Wait for the sends (buffer reuse) ...
      for (auto& s : sends) co_await SendDoneAwait{*ctx.cluster, rank, s};
      sends.clear();

      // 5. ... and for the receives: kernel-ready, then the A3 CPU copy.
      for (PendingRecv& pr : pending) {
        co_await RecvReadyAwait{*ctx.cluster, rank, pr.handle};
        const i64 bytes = pr.bytes;
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiRecv};
        const sim::Time rstall = ctx.cluster->recv_interference_ns(bytes);
        if (rstall > 0)
          co_await CpuAwait{ep, rstall, obs::Phase::kKernelRecv};
        if (ctx.opts.functional)
          apply_payload(rs, pr.comm->regions, pr.handle->payload);
      }
      pending.clear();
    }

    // Column epilogue: ship the last tile's results.
    {
      t[md] = khi;
      const CommView outs = outs_of(ctx, t);
      for (const TileComm& out : outs.items()) {
        peer = t;
        peer += out.offset;
        const i64 dst_rank = mapping.rank_of_tile(peer);
        if (dst_rank == rank) continue;
        const i64 bytes = message_bytes(ctx, peer, out);
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiSend};
        msg::Payload payload;
        if (ctx.opts.functional) payload = encode_payload(rs, out.regions);
        sends.push_back(ep.isend(
            static_cast<int>(dst_rank),
            tag_for(ctx, peer, out.dir), bytes,
            std::move(payload)));
        const sim::Time sstall = ctx.cluster->send_interference_ns(bytes);
        if (sstall > 0)
          co_await CpuAwait{ep, sstall, obs::Phase::kKernelSend};
      }
      for (auto& s : sends) co_await SendDoneAwait{*ctx.cluster, rank, s};
      sends.clear();
    }
  }
  ++ctx.completed_ranks;
}

loop::DenseField assemble_field(const Ctx& ctx) {
  const Box& domain = ctx.plan->space.domain();
  loop::DenseField field{
      domain,
      std::vector<double>(static_cast<std::size_t>(domain.volume()), 0.0)};
  for (const RankState& rs : *ctx.ranks) {
    rs.owned.for_each_point([&](const Vec& p) {
      field.values[static_cast<std::size_t>(domain.linear_index(p))] =
          rs.get(p);
    });
  }
  return field;
}

}  // namespace

struct RunWorkspace::Impl {
  std::vector<RankState> ranks;
  CommSummaries comm;  // timed runs' class table
};

RunWorkspace::RunWorkspace() : impl_(std::make_unique<Impl>()) {}
RunWorkspace::~RunWorkspace() = default;
RunWorkspace::RunWorkspace(RunWorkspace&&) noexcept = default;
RunWorkspace& RunWorkspace::operator=(RunWorkspace&&) noexcept = default;

RunResult run_plan(const loop::LoopNest& nest, const TilePlan& plan,
                   std::shared_ptr<const mach::Model> model,
                   const RunOptions& opts, RunWorkspace* workspace) {
  TILO_REQUIRE(model != nullptr, "run_plan needs a machine model");
  TILO_REQUIRE(nest.domain() == plan.space.domain(),
               "plan was built for a different domain");
  if (opts.functional)
    TILO_REQUIRE(nest.has_kernel(),
                 "functional execution needs a loop body");
  TILO_REQUIRE(!(opts.functional && opts.tile_costs),
               "per-tile cost models are timed-only: trimmed messages do "
               "not match the functional value regions");

  const i64 num_ranks = plan.mapping.num_ranks();
  TILO_REQUIRE(num_ranks <= std::numeric_limits<int>::max(),
               "too many ranks");

  RunWorkspace local;
  RunWorkspace::Impl& ws = workspace ? *workspace->impl_ : *local.impl_;
  if (!opts.functional && !ws.comm.matches(plan.space))
    ws.comm.build(plan.space);

  Ctx ctx;
  ctx.nest = &nest;
  ctx.plan = &plan;
  ctx.opts = opts;
  ctx.ranks = &ws.ranks;
  ctx.comm = &ws.comm;
  ctx.bpe = model->params().bytes_per_element;
  ctx.ndirs = static_cast<i64>(std::max<std::size_t>(
      1, plan.space.tile_deps().size()));

  // The blocking executor models the no-overlap machine; the nonblocking
  // executor needs a DMA-capable level.
  mach::OverlapLevel level = mach::OverlapLevel::kNone;
  if (plan.kind == sched::ScheduleKind::kOverlap) {
    TILO_REQUIRE(opts.comm.level != mach::OverlapLevel::kNone,
                 "the overlapping schedule needs OverlapLevel::kDma or "
                 "kDuplexDma");
    level = opts.comm.level;
  }

  ctx.cluster = std::make_unique<msg::Cluster>(
      static_cast<int>(num_ranks), std::move(model), level,
      opts.comm.network, opts.sink, opts.comm.protocol);
  if (opts.faults.drop_message >= 0)
    ctx.cluster->inject_message_loss(opts.faults.drop_message);
  ws.ranks.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < static_cast<int>(num_ranks); ++r)
    init_rank_state(ctx, r);

  for (int r = 0; r < static_cast<int>(num_ranks); ++r) {
    if (plan.kind == sched::ScheduleKind::kOverlap) {
      nonblocking_program(ctx, r);
    } else {
      blocking_program(ctx, r);
    }
  }

  const sim::Time end = ctx.cluster->run();
  // Reclaim any programs still parked on message waits (lost message or
  // deadlock): destroying the frames releases their buffers and handles.
  const std::vector<void*> stalled = ctx.cluster->take_suspended();
  for (void* address : stalled)
    std::coroutine_handle<>::from_address(address).destroy();
  if (ctx.sink.error) std::rethrow_exception(ctx.sink.error);
  TILO_REQUIRE(ctx.completed_ranks == static_cast<int>(num_ranks),
               "rank programs stalled: only ", ctx.completed_ranks, " of ",
               num_ranks,
               " completed — lost message or scheduling deadlock (",
               stalled.size(), " programs reclaimed)");

  RunResult result;
  result.completion = end;
  result.seconds = sim::to_seconds(end);
  result.messages = ctx.cluster->messages_sent();
  result.bytes = ctx.cluster->bytes_sent();
  result.peak_inflight_bytes = ctx.cluster->peak_inflight_bytes();
  for (const RankState& rs : ws.ranks) {
    const i64 cells = rs.extended.volume() - rs.owned.volume();
    result.halo_bytes =
        util::checked_add(result.halo_bytes,
                          util::checked_mul(cells, ctx.bpe));
  }
  result.events = ctx.cluster->engine().events_processed();
  result.traffic = ctx.cluster->traffic();
  if (opts.functional) result.field = assemble_field(ctx);
  if (opts.sink) {
    obs::Sink& s = *opts.sink;
    s.counter("run.runs", 1.0);
    s.counter("run.ranks", static_cast<double>(num_ranks));
    s.counter("run.messages", static_cast<double>(result.messages));
    s.counter("run.bytes", static_cast<double>(result.bytes));
    s.counter("run.halo_bytes", static_cast<double>(result.halo_bytes));
  }
  return result;
}

double run_and_validate(const loop::LoopNest& nest, const TilePlan& plan,
                        std::shared_ptr<const mach::Model> model) {
  RunOptions opts;
  opts.functional = true;
  const RunResult run = run_plan(nest, plan, std::move(model), opts);
  TILO_ASSERT(run.field.has_value(), "functional run produced no field");
  const loop::DenseField ref = loop::run_sequential(nest);
  return loop::max_abs_diff(*run.field, ref);
}

}  // namespace tilo::exec
