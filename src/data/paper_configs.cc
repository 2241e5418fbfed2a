#include "data/paper_configs.h"

#include "data/partition.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fats {

double DatasetProfile::rho_c() const {
  return static_cast<double>(clients_per_round_k) * total_iters_t() /
         (static_cast<double>(local_iters_e) * clients_m);
}

double DatasetProfile::rho_s() const {
  return static_cast<double>(batch_b) * clients_per_round_k *
         total_iters_t() /
         (static_cast<double>(clients_m) * samples_per_client_n);
}

std::string DatasetProfile::ToString() const {
  return StrFormat(
      "%s (%s): M=%lld N=%lld K=%lld R=%lld E=%lld b=%lld lr=%.3f "
      "rho_s=%.3f rho_c=%.3f",
      name.c_str(), paper_name.c_str(), (long long)clients_m,
      (long long)samples_per_client_n, (long long)clients_per_round_k,
      (long long)rounds_r, (long long)local_iters_e, (long long)batch_b,
      learning_rate, rho_s(), rho_c());
}

std::vector<DatasetProfile> PaperTable2Profiles() {
  // Table 2 of the paper. N is total samples / M. Model column is recorded
  // in paper_name for reference; these profiles are not sized to run here.
  std::vector<DatasetProfile> out;
  auto add = [&out](const char* name, const char* paper, int64_t samples,
                    int64_t m, int64_t k, int64_t r, int64_t e, int64_t b) {
    DatasetProfile p;
    p.name = name;
    p.paper_name = paper;
    p.clients_m = m;
    p.samples_per_client_n = samples / m;
    p.clients_per_round_k = k;
    p.rounds_r = r;
    p.local_iters_e = e;
    p.batch_b = b;
    out.push_back(p);
  };
  add("mnist", "MNIST (CNN)", 60000, 300, 5, 30, 10, 10);
  add("fashion", "FashionM (CNN)", 60000, 300, 5, 50, 10, 10);
  add("cifar10", "Cifar-10 (VGG16)", 60000, 600, 5, 50, 10, 10);
  add("cifar100", "Cifar-100 (VGG16)", 60000, 600, 10, 50, 10, 10);
  add("femnist", "FEMNIST (CNN)", 811586, 3556, 5, 350, 20, 10);
  add("shakespeare", "Shakes (LSTM)", 3678451, 660, 20, 30, 100, 60);
  return out;
}

std::vector<std::string> ScaledProfileNames() {
  return {"mnist", "fashion", "cifar10", "cifar100", "femnist",
          "shakespeare"};
}

namespace {

DatasetProfile MakeScaledImageSimulated(const std::string& name,
                                        const std::string& paper_name,
                                        int64_t classes, int64_t dim,
                                        double noise, int64_t rounds,
                                        int64_t k, ModelKind model_kind) {
  DatasetProfile p;
  p.name = name;
  p.paper_name = paper_name;
  p.task = TaskKind::kImageSimulated;
  p.clients_m = 60;
  p.samples_per_client_n = 40;
  p.clients_per_round_k = k;
  p.rounds_r = rounds;
  p.local_iters_e = 5;
  p.batch_b = 4;
  p.learning_rate = 0.08;
  p.dirichlet_beta = 0.5;
  p.test_size = 480;
  p.image.num_classes = classes;
  p.image.feature_dim = dim;
  p.image.noise_stddev = noise;
  p.image.seed = 11;
  p.model.num_classes = classes;
  p.model.kind = model_kind;
  if (model_kind == ModelKind::kSmallCnn) {
    // dim must be a square times channels; we use 1 x sqrt(dim) x sqrt(dim).
    int64_t side = 1;
    while ((side + 1) * (side + 1) <= dim) ++side;
    FATS_CHECK_EQ(side * side, dim) << "CNN profile dim must be square";
    p.model.image_channels = 1;
    p.model.image_height = side;
    p.model.image_width = side;
    p.model.conv_channels = 6;
    p.model.kernel_size = 3;
  } else {
    p.model.input_dim = dim;
    p.model.hidden_dims = {48};
  }
  return p;
}

}  // namespace

Result<DatasetProfile> ScaledProfile(const std::string& name) {
  if (name == "mnist") {
    // ρ_C = 2·75/(5·60) = 0.5 ; ρ_S = 4·2·75/(60·40) = 0.25 (paper: 0.5/0.25).
    return MakeScaledImageSimulated("mnist", "MNIST (CNN)", /*classes=*/10,
                                    /*dim=*/64, /*noise=*/0.9, /*rounds=*/15,
                                    /*k=*/2, ModelKind::kSmallCnn);
  }
  if (name == "fashion") {
    DatasetProfile p = MakeScaledImageSimulated(
        "fashion", "FashionM (CNN)", /*classes=*/10, /*dim=*/64,
        /*noise=*/1.2, /*rounds=*/20, /*k=*/2, ModelKind::kSmallCnn);
    p.clients_m = 80;  // ρ_C = 2·100/(5·80) = 0.5
    p.image.seed = 12;
    return p;
  }
  if (name == "cifar10") {
    DatasetProfile p = MakeScaledImageSimulated(
        "cifar10", "Cifar-10 (VGG16->MLP)", /*classes=*/10, /*dim=*/48,
        /*noise=*/1.4, /*rounds=*/20, /*k=*/2, ModelKind::kMlp);
    p.clients_m = 80;
    p.image.seed = 13;
    return p;
  }
  if (name == "cifar100") {
    DatasetProfile p = MakeScaledImageSimulated(
        "cifar100", "Cifar-100 (VGG16->MLP)", /*classes=*/20, /*dim=*/48,
        /*noise=*/1.2, /*rounds=*/20, /*k=*/4, ModelKind::kMlp);
    p.clients_m = 160;  // ρ_C = 4·100/(5·160) = 0.5
    p.samples_per_client_n = 30;
    p.model.hidden_dims = {64};
    p.image.seed = 14;
    return p;
  }
  if (name == "femnist") {
    DatasetProfile p;
    p.name = "femnist";
    p.paper_name = "FEMNIST (CNN)";
    p.task = TaskKind::kImageNatural;
    p.clients_m = 100;
    p.samples_per_client_n = 30;
    p.clients_per_round_k = 2;
    p.rounds_r = 25;
    p.local_iters_e = 8;
    p.batch_b = 2;  // ρ_S = 2·2·200/(100·30) ≈ 0.267 ; ρ_C = 0.5
    p.learning_rate = 0.08;
    p.test_size = 400;
    p.image.num_classes = 16;
    p.image.feature_dim = 64;
    p.image.noise_stddev = 0.8;
    p.image.style_strength = 0.4;
    p.image.seed = 15;
    p.model.kind = ModelKind::kSmallCnn;
    p.model.num_classes = 16;
    p.model.image_channels = 1;
    p.model.image_height = 8;
    p.model.image_width = 8;
    p.model.conv_channels = 6;
    p.model.kernel_size = 3;
    return p;
  }
  if (name == "shakespeare") {
    DatasetProfile p;
    p.name = "shakespeare";
    p.paper_name = "Shakes (LSTM)";
    p.task = TaskKind::kText;
    p.clients_m = 60;
    p.samples_per_client_n = 50;
    p.clients_per_round_k = 4;
    p.rounds_r = 10;
    p.local_iters_e = 10;
    p.batch_b = 3;  // ρ_S = 3·4·100/(60·50) = 0.4 ; ρ_C = 4·100/(10·60) ≈ 0.67
    p.learning_rate = 1.5;  // LSTMs want large rates here, as in the paper
    p.test_size = 400;
    p.text.vocab_size = 24;
    p.text.seq_len = 10;
    p.text.transition_concentration = 0.05;  // strongly predictable chains
    p.text.heterogeneity = 0.4;
    p.text.seed = 16;
    p.model.kind = ModelKind::kCharLstm;
    p.model.num_classes = 24;
    p.model.vocab_size = 24;
    p.model.embed_dim = 8;
    p.model.lstm_hidden = 32;
    p.model.seq_len = 10;
    return p;
  }
  return Status::NotFound("unknown scaled profile: " + name);
}

InMemoryDataset GenerateClientHoldout(const DatasetProfile& profile,
                                      uint64_t seed, int64_t client,
                                      int64_t n) {
  // Mirrors BuildFederatedData's per-task seeding, with a sample stream
  // offset far away from both the training (k + 1000) and test (k + 2000000)
  // streams.
  const uint64_t holdout_stream = static_cast<uint64_t>(client) + 3000000;
  switch (profile.task) {
    case TaskKind::kImageSimulated: {
      SyntheticImageConfig cfg = profile.image;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      SyntheticImageGenerator gen(cfg);
      return gen.Generate(
          n,
          DrawLdaClassProportionsFor(client, cfg.num_classes,
                                     profile.dirichlet_beta, cfg.seed + 1),
          /*style_client=*/-1, holdout_stream);
    }
    case TaskKind::kImageNatural: {
      SyntheticImageConfig cfg = profile.image;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      SyntheticImageGenerator gen(cfg);
      return gen.Generate(
          n,
          DrawLdaClassProportionsFor(client, cfg.num_classes, /*beta=*/2.0,
                                     cfg.seed + 1),
          /*style_client=*/client, holdout_stream);
    }
    case TaskKind::kText: {
      SyntheticTextConfig cfg = profile.text;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      SyntheticTextGenerator gen(cfg);
      return gen.Generate(n, client, holdout_stream);
    }
  }
  return InMemoryDataset();
}

FederatedDataset BuildFederatedData(const DatasetProfile& profile,
                                    uint64_t seed) {
  const int64_t m = profile.clients_m;
  const int64_t n = profile.samples_per_client_n;
  std::vector<InMemoryDataset> shards;
  shards.reserve(static_cast<size_t>(m));
  InMemoryDataset test;

  switch (profile.task) {
    case TaskKind::kImageSimulated: {
      SyntheticImageConfig cfg = profile.image;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      SyntheticImageGenerator gen(cfg);
      if (profile.central_lda_partition) {
        // The paper's literal pipeline: one corpus, label-Dirichlet split.
        InMemoryDataset corpus =
            gen.Generate(m * n, /*class_probs=*/{}, /*style_client=*/-1,
                         /*sample_stream_seed=*/500);
        std::vector<std::vector<int64_t>> parts = PartitionDirichlet(
            corpus.labels(), cfg.num_classes, m, profile.dirichlet_beta,
            cfg.seed + 1);
        for (int64_t k = 0; k < m; ++k) {
          std::vector<int64_t>& part = parts[static_cast<size_t>(k)];
          if (part.empty()) {
            // Give empty shards one sample so every client can train.
            part.push_back(k % corpus.size());
          }
          Batch shard = corpus.GatherBatch(part);
          shards.emplace_back(std::move(shard.inputs),
                              std::move(shard.labels), cfg.num_classes);
        }
      } else {
        std::vector<std::vector<double>> proportions =
            DrawLdaClassProportions(m, cfg.num_classes,
                                    profile.dirichlet_beta, cfg.seed + 1);
        for (int64_t k = 0; k < m; ++k) {
          shards.push_back(
              gen.Generate(n, proportions[static_cast<size_t>(k)],
                           /*style_client=*/-1,
                           /*sample_stream_seed=*/
                           static_cast<uint64_t>(k) + 1000));
        }
      }
      test = gen.Generate(profile.test_size, /*class_probs=*/{},
                          /*style_client=*/-1, /*sample_stream_seed=*/1);
      break;
    }
    case TaskKind::kImageNatural: {
      SyntheticImageConfig cfg = profile.image;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      SyntheticImageGenerator gen(cfg);
      // Each client has its own style warp and a mildly skewed class mix.
      std::vector<std::vector<double>> proportions = DrawLdaClassProportions(
          m, cfg.num_classes, /*beta=*/2.0, cfg.seed + 1);
      for (int64_t k = 0; k < m; ++k) {
        shards.push_back(gen.Generate(n, proportions[static_cast<size_t>(k)],
                                      /*style_client=*/k,
                                      static_cast<uint64_t>(k) + 1000));
      }
      // LEAF-style: the test set is a mixture of held-out per-client shards.
      const int64_t test_clients = std::min<int64_t>(m, 40);
      const int64_t per_client =
          std::max<int64_t>(1, profile.test_size / test_clients);
      for (int64_t k = 0; k < test_clients; ++k) {
        test.Append(gen.Generate(per_client,
                                 proportions[static_cast<size_t>(k)], k,
                                 static_cast<uint64_t>(k) + 2000000));
      }
      break;
    }
    case TaskKind::kText: {
      SyntheticTextConfig cfg = profile.text;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      SyntheticTextGenerator gen(cfg);
      for (int64_t k = 0; k < m; ++k) {
        shards.push_back(
            gen.Generate(n, k, static_cast<uint64_t>(k) + 1000));
      }
      const int64_t test_clients = std::min<int64_t>(m, 40);
      const int64_t per_client =
          std::max<int64_t>(1, profile.test_size / test_clients);
      for (int64_t k = 0; k < test_clients; ++k) {
        test.Append(
            gen.Generate(per_client, k, static_cast<uint64_t>(k) + 2000000));
      }
      break;
    }
  }
  return FederatedDataset(std::move(shards), std::move(test));
}

FederatedDataset BuildLazyFederatedData(const DatasetProfile& profile,
                                        uint64_t seed,
                                        LazyDatasetOptions options) {
  FATS_CHECK(!profile.central_lda_partition)
      << "central-LDA partition needs the whole corpus at once; "
         "use BuildFederatedData for profile "
      << profile.name;
  const int64_t m = profile.clients_m;
  const int64_t n = profile.samples_per_client_n;
  InMemoryDataset test;
  FederatedDataset::ShardGenerator generator;

  // Each branch builds its generator once, uses it for the test set, and
  // captures it by value; the lambda regenerates client k's shard exactly as
  // the corresponding BuildFederatedData loop body does: the generator is
  // deterministic in its config, per-client LDA proportions come from
  // per-client keyed streams, and the sample stream seed is a pure function
  // of k. Lazy shards are therefore bitwise identical to the eager build's,
  // and a shard costs only its LDA row and its N x d sample draws.
  switch (profile.task) {
    case TaskKind::kImageSimulated: {
      SyntheticImageConfig cfg = profile.image;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      const double beta = profile.dirichlet_beta;
      const SyntheticImageGenerator gen(cfg);
      generator = [gen, n, beta](int64_t k) {
        return gen.Generate(
            n,
            DrawLdaClassProportionsFor(k, gen.config().num_classes, beta,
                                       gen.config().seed + 1),
            /*style_client=*/-1,
            /*sample_stream_seed=*/static_cast<uint64_t>(k) + 1000);
      };
      test = gen.Generate(profile.test_size, /*class_probs=*/{},
                          /*style_client=*/-1, /*sample_stream_seed=*/1);
      break;
    }
    case TaskKind::kImageNatural: {
      SyntheticImageConfig cfg = profile.image;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      const SyntheticImageGenerator gen(cfg);
      generator = [gen, n](int64_t k) {
        return gen.Generate(
            n,
            DrawLdaClassProportionsFor(k, gen.config().num_classes,
                                       /*beta=*/2.0, gen.config().seed + 1),
            /*style_client=*/k,
            /*sample_stream_seed=*/static_cast<uint64_t>(k) + 1000);
      };
      const int64_t test_clients = std::min<int64_t>(m, 40);
      const int64_t per_client =
          std::max<int64_t>(1, profile.test_size / test_clients);
      for (int64_t k = 0; k < test_clients; ++k) {
        test.Append(gen.Generate(
            per_client,
            DrawLdaClassProportionsFor(k, cfg.num_classes, /*beta=*/2.0,
                                       cfg.seed + 1),
            k, static_cast<uint64_t>(k) + 2000000));
      }
      break;
    }
    case TaskKind::kText: {
      SyntheticTextConfig cfg = profile.text;
      cfg.seed = SplitMix64(cfg.seed ^ seed);
      const SyntheticTextGenerator gen(cfg);
      generator = [gen, n](int64_t k) {
        return gen.Generate(n, k, static_cast<uint64_t>(k) + 1000);
      };
      const int64_t test_clients = std::min<int64_t>(m, 40);
      const int64_t per_client =
          std::max<int64_t>(1, profile.test_size / test_clients);
      for (int64_t k = 0; k < test_clients; ++k) {
        test.Append(
            gen.Generate(per_client, k, static_cast<uint64_t>(k) + 2000000));
      }
      break;
    }
  }
  return FederatedDataset(std::move(generator),
                          std::vector<int64_t>(static_cast<size_t>(m), n),
                          std::move(test), options);
}

}  // namespace fats
