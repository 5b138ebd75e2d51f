// Serving quickstart: train two models with the DimmWitted engine and
// serve them side by side from one NUMA-replicated scoring service.
//
//   1. train a wide logistic-regression model and a narrow SVM,
//   2. register both as named families -- the registry picks each
//      family's replication with the opt:: cost model (no hard-coding),
//   3. register a serving-time FeatureStore for the wide family: known
//      entities' feature rows live WITH the scoring workers (placement
//      chosen by the cost model too), so requests can be id-keyed --
//      Score(family, row_id) ships one integer instead of a feature
//      vector, and the worker gathers the row from its own node,
//   4. wire each trainer to its family through a SnapshotExporter, which
//      publishes fresh snapshots on a period WHILE training runs,
//   5. score rows against either family -- id-keyed for stored entities,
//      carried-feature for novel ones -- through the same batcher,
//   6. read each family's numbers from the metric registry by name:
//      rows, latency, snapshot staleness, admission, and where the
//      id-keyed feature gathers landed.
//
// Build & run:  ./examples/serving_quickstart
#include <cstdio>
#include <vector>

#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "engine/engine.h"
#include "models/glm.h"
#include "serve/serving_engine.h"
#include "serve/snapshot_exporter.h"

int main() {
  using namespace dw;
  using matrix::Index;

  // 1. Two trainers. PerNode replication, row-wise access: the paper's
  //    sweet spot for GLMs.
  const data::Dataset wide_data = data::Rcv1(/*scale=*/0.003);
  models::LogisticSpec lr;
  engine::EngineOptions train_opts;
  train_opts.topology = numa::Local2();
  engine::Engine wide_trainer(&wide_data, &lr, train_opts);

  const Index narrow_dim = 24;
  data::Dataset narrow_data;
  narrow_data.name = "fraud";
  narrow_data.a = data::MakeDenseTable(
      {.rows = 1500, .cols = narrow_dim, .feature_correlation = 0.2,
       .seed = 42});
  narrow_data.b =
      data::PlantClassificationLabels(narrow_data.a, narrow_dim, 0.0, 43);
  models::SvmSpec svm;
  engine::Engine narrow_trainer(&narrow_data, &svm, train_opts);

  Status st = wide_trainer.Init();
  if (st.ok()) st = narrow_trainer.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "Init failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. Register both families. No Replication argument anywhere: each
  //    family describes its expected traffic (dimension, batch width,
  //    reads per publish) and opt::ChooseModelPlacement costs both
  //    strategies through the calibrated memory model. The wide
  //    read-heavy family comes out PerNode (one replica per socket); the
  //    narrow family, republished every few ms by its exporter, comes
  //    out PerMachine (replicating snapshots nobody read yet is waste).
  serve::ServingOptions serve_opts;
  serve_opts.topology = numa::Local2();
  serve_opts.batch.max_batch_size = 32;
  serve_opts.batch.max_delay = std::chrono::microseconds(200);
  serve::ServingEngine server(serve_opts);

  const Index wide_dim = wide_data.a.cols();
  serve::ServingFamilyOptions wide_family;
  wide_family.traffic.dim = wide_dim;
  wide_family.traffic.expected_batch_rows = 32.0;
  wide_family.traffic.reads_per_publish = 2048.0;  // read-heavy
  // Two tenants share the wide family 3:1. Admission and batch formation
  // are per client (deficit-round-robin fair queuing), so a bursty
  // tenant exhausts only its own share of the family's queue -- and the
  // queue bound itself is a queueing-DELAY budget costed by
  // opt::AdmissionController, not a blind row count.
  wide_family.client_weights = {{serve::ClientId("ranker"), 3.0},
                                {serve::ClientId("explorer"), 1.0}};
  serve::ServingFamilyOptions narrow_family;
  narrow_family.traffic.dim = narrow_dim;
  narrow_family.traffic.expected_batch_rows = 32.0;
  narrow_family.traffic.reads_per_publish = 0.25;  // hot-refresh
  st = server.RegisterFamily("ctr-wide-lr", &lr, wide_family);
  if (st.ok()) st = server.RegisterFamily("fraud-narrow-svm", &svm, narrow_family);
  if (!st.ok()) {
    std::fprintf(stderr, "RegisterFamily failed: %s\n", st.ToString().c_str());
    return 1;
  }
  for (const char* name : {"ctr-wide-lr", "fraud-narrow-svm"}) {
    const serve::ModelFamily* f = server.FindFamily(name);
    std::printf("%-17s -> %s (%s)\n", name, serve::ToString(f->replication()),
                f->rationale().c_str());
  }

  // 3. A FeatureStore for the wide family: the first kStoreRows of the
  //    corpus stand in for known entities (users, documents) whose
  //    features the serving tier already holds. Like replication, the
  //    PLACEMENT (full copy per socket vs rows sharded across sockets)
  //    is chosen by the cost model from a traffic estimate; stores
  //    hot-swap atomically, so a nightly rebuild could PublishStore()
  //    under live traffic. The store dim must equal the model dim: an
  //    id-keyed row feeds PredictBatch directly, with zero copies.
  const Index kStoreRows = 64;
  st = server.RegisterStore("ctr-wide-lr", kStoreRows, wide_dim);
  if (!st.ok()) {
    std::fprintf(stderr, "RegisterStore failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<double> table(static_cast<size_t>(kStoreRows) * wide_dim, 0.0);
  for (Index r = 0; r < kStoreRows; ++r) {
    const auto row = wide_data.a.Row(r);
    for (uint32_t k = 0; k < row.nnz; ++k) {
      table[static_cast<size_t>(r) * wide_dim + row.indices[k]] =
          row.values[k];
    }
  }
  server.PublishStore("ctr-wide-lr", table);
  {
    const serve::FeatureStore* store = server.FindStore("ctr-wide-lr");
    std::printf("%-17s store %ux%u -> %s (%s)\n", "ctr-wide-lr",
                store->rows(), store->dim(), serve::ToString(store->placement()),
                store->rationale().c_str());
  }

  // 4. One exporter per family: Start() publishes version 1, then
  //    each publishes mid-training on its own period. Export() is
  //    thread-safe (it reads the engine's consensus export buffer), so
  //    epochs never block on serving.
  serve::SnapshotExporter::Options wide_eopts;
  wide_eopts.period = std::chrono::milliseconds(20);
  serve::SnapshotExporter wide_exporter(&wide_trainer, &server, "ctr-wide-lr",
                                        wide_eopts);
  serve::SnapshotExporter::Options narrow_eopts;
  narrow_eopts.period = std::chrono::milliseconds(2);
  serve::SnapshotExporter narrow_exporter(&narrow_trainer, &server,
                                          "fraud-narrow-svm", narrow_eopts);
  wide_exporter.Start();
  narrow_exporter.Start();
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "Start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving %d families on %d threads\n", server.num_families(),
              server.num_workers());

  //    Train both models while serving; the exporters hot-swap improved
  //    snapshots underneath the in-flight traffic.
  engine::RunConfig cfg;
  cfg.max_epochs = 10;
  std::thread narrow_training([&] { narrow_trainer.Run(cfg); });
  const engine::RunResult wide_result = wide_trainer.Run(cfg);
  narrow_training.join();
  std::printf("trained %s for %zu epochs, final loss %.4f\n",
              lr.name().c_str(), wide_result.epochs.size(),
              wide_result.BestLoss());
  //    Training is done: stopping an exporter flushes one final export,
  //    so the freshly-trained weights are what gets served below.
  wide_exporter.Stop();
  narrow_exporter.Stop();

  // 5. Score stored entities BY ID against the wide family: the request
  //    is one integer, the worker gathers the features from its own
  //    node's copy of the store, and the score is identical to shipping
  //    the row by hand (shown by scoring both ways).
  for (Index i = 0; i < 3; ++i) {
    //    The trailing ClientId attributes the request for fair queuing;
    //    the client-less overload lands on serve::kDefaultClient.
    const auto by_id =
        server.ScoreSync("ctr-wide-lr", i, serve::ClientId("ranker"));
    if (!by_id.ok()) {
      std::fprintf(stderr, "Score failed: %s\n",
                   by_id.status().ToString().c_str());
      return 1;
    }
    const auto row = wide_data.a.Row(i);
    std::vector<Index> idx(row.indices, row.indices + row.nnz);
    std::vector<double> vals(row.values, row.values + row.nnz);
    const auto carried = server.ScoreSync("ctr-wide-lr", idx, vals);
    if (!carried.ok()) {
      std::fprintf(stderr, "Score failed: %s\n",
                   carried.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "ctr-wide-lr row %u: P(y=+1) = %.3f by id, %.3f carried (label "
        "%+.0f)\n",
        i, by_id.value(), carried.value(), wide_data.b[i]);
  }
  //    Novel rows (not in any store) still take the carried form, here
  //    against the narrow family.
  for (Index i = 0; i < 3; ++i) {
    const auto row = narrow_data.a.Row(i);
    std::vector<Index> idx(row.indices, row.indices + row.nnz);
    std::vector<double> vals(row.values, row.values + row.nnz);
    const auto score = server.ScoreSync("fraud-narrow-svm", idx, vals);
    if (!score.ok()) {
      std::fprintf(stderr, "Score failed: %s\n",
                   score.status().ToString().c_str());
      return 1;
    }
    std::printf("fraud-narrow-svm row %u: margin = %+.3f (label %+.0f)\n", i,
                score.value(), narrow_data.b[i]);
  }

  // 6. Stop serving and read each family's numbers from the metric
  //    registry by name and labels: the staleness the async pipeline
  //    traded for never blocking an epoch, and where the id-keyed
  //    feature gathers landed (all node-local under a replicated store --
  //    the collocation the store exists for). The lookup dies on a name
  //    nothing registered, so a renamed metric fails this program.
  server.Stop();
  const obs::RegistrySnapshot snap = server.telemetry().Snapshot();
  for (const serve::FamilyServingStats& f : server.Stats().families) {
    const obs::Labels fam = {{"family", f.family}};
    const obs::HistogramSnapshot& latency =
        snap.HistogramValue("serve.latency_ms", fam);
    const obs::HistogramSnapshot& staleness =
        snap.HistogramValue("serve.staleness_ms", fam);
    std::printf(
        "%-17s v%llu: %llu rows in %llu batches (%llu by id: %llu local / "
        "%llu remote gathers), p50 %.3f ms, p99 %.3f ms, staleness mean "
        "%.1f ms (max %.1f), rejected %llu\n",
        f.family.c_str(),
        static_cast<unsigned long long>(
            server.FindFamily(f.family)->current_version()),
        static_cast<unsigned long long>(snap.CounterValue("serve.rows", fam)),
        static_cast<unsigned long long>(
            snap.CounterValue("serve.batches", fam)),
        static_cast<unsigned long long>(snap.CounterValue("store.id_rows", fam)),
        static_cast<unsigned long long>(
            snap.CounterValue("store.local_gather_rows", fam)),
        static_cast<unsigned long long>(
            snap.CounterValue("store.remote_gather_rows", fam)),
        latency.Percentile(50.0), latency.Percentile(99.0), staleness.Mean(),
        staleness.max,
        static_cast<unsigned long long>(
            snap.CounterValue("queue.rejected_full", fam) +
            snap.CounterValue("queue.rejected_cost", fam)));
    // The client roster (and each client's weight) is the one thing no
    // instrument records; its counters are registry metrics too.
    for (const serve::RequestBatcher::ClientStats& c : f.clients) {
      const obs::Labels client = {{"family", f.family},
                                  {"client", c.client.str()}};
      std::printf(
          "                  client %-9s (weight %.1f): %llu accepted, %llu "
          "served, %llu rejected\n",
          c.client.str().c_str(), c.weight,
          static_cast<unsigned long long>(
              snap.CounterValue("queue.client_accepted", client)),
          static_cast<unsigned long long>(
              snap.CounterValue("queue.client_served", client)),
          static_cast<unsigned long long>(
              snap.CounterValue("queue.client_rejected", client)));
    }
    std::printf("                  service estimate %.2f us/row (prior "
                "%.2f, measured EWMA %.2f over %llu batches)\n",
                snap.GaugeValue("admission.est_row_us", fam),
                snap.GaugeValue("admission.prior_row_us", fam),
                snap.GaugeValue("admission.measured_row_us", fam),
                static_cast<unsigned long long>(
                    snap.CounterValue("admission.cost_reports", fam)));
  }
  return 0;
}
