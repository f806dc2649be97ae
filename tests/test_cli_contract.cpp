// CLI contract for examples/et_cli: strict argument handling (unknown
// flags and junk values name the offending token on stderr and exit
// nonzero — never silently dropped or read as zero), --help in sync with
// the --serve flag set, and the --serve --json field names locked to
// serving::MetricsRegistry::scalars() — the same list
// bench/ablation_serving rows iterate, so the two outputs cannot drift.
//
// The binaries under test are injected at build time (ET_CLI_PATH,
// ET_CLIENT_PATH) and driven through popen; runs stay tiny so the whole
// suite is fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>
#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "nn/encoder.hpp"
#include "serving/server.hpp"

#ifndef ET_CLI_PATH
#error "ET_CLI_PATH must be defined to the et_cli binary path"
#endif
#ifndef ET_CLIENT_PATH
#error "ET_CLIENT_PATH must be defined to the et_client binary path"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const std::string& command) {
  const std::string cmd = command + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

RunResult run_cli(const std::string& args) {
  return run(std::string(ET_CLI_PATH) + " " + args);
}

// Spawn et_cli directly (popen cannot deliver signals), wait for the
// line holding the readiness marker on its combined stdout/stderr, run
// `on_ready` with the output so far, send `sig`, then collect the rest of
// the output and the exit status. If the marker never appears within the
// deadline the child is SIGKILLed so the test fails with output instead
// of hanging.
RunResult run_until_marker_then_signal(
    const std::string& args, const std::string& marker, int sig,
    const std::function<void(const std::string&)>& on_ready = {}) {
  RunResult r;
  int fds[2];
  if (::pipe(fds) != 0) return r;
  const pid_t pid = ::fork();
  if (pid < 0) return r;
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string cmd = std::string(ET_CLI_PATH) + " " + args;
    ::execl("/bin/sh", "sh", "-c", ("exec " + cmd).c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(fds[1]);
  bool signalled = false;
  const int deadline_ms = 60000;
  int waited_ms = 0;
  char buf[512];
  for (;;) {
    pollfd p{fds[0], POLLIN, 0};
    const int rc = ::poll(&p, 1, 100);
    if (rc == 0) {
      waited_ms += 100;
      if (waited_ms >= deadline_ms) break;  // wedged: fail with output
      continue;
    }
    if (rc < 0) break;
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;  // EOF: child exited
    r.output.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = r.output.find(marker);
    if (!signalled && at != std::string::npos &&
        r.output.find('\n', at) != std::string::npos) {
      if (on_ready) on_ready(r.output);
      ::kill(pid, sig);
      signalled = true;
    }
  }
  if (!signalled) ::kill(pid, SIGKILL);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(CliContract, UnknownFlagExitsNonzeroNamingTheToken) {
  const auto r = run_cli("--bogus-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--bogus-flag"), std::string::npos) << r.output;
}

TEST(CliContract, JunkNumericValueExitsNonzeroNamingTheToken) {
  for (const char* flag :
       {"--seq", "--requests", "--queue-cap", "--arrive", "--deadline",
        "--queue-budget", "--retries", "--backoff-ticks", "--threads",
        "--tokens", "--batch"}) {
    const auto r = run_cli(std::string(flag) + " banana");
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find("banana"), std::string::npos)
        << flag << ": " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << flag << ": " << r.output;
  }
  // Trailing junk must be rejected too — '12x' is not 12.
  const auto trailing = run_cli("--seq 12x");
  EXPECT_EQ(trailing.exit_code, 2);
  EXPECT_NE(trailing.output.find("12x"), std::string::npos);
  // A ratio outside [0, 1) is named as bad, not clamped.
  const auto ratio = run_cli("--ratio 1.5");
  EXPECT_EQ(ratio.exit_code, 2);
  EXPECT_NE(ratio.output.find("1.5"), std::string::npos);
}

TEST(CliContract, JunkChoiceOrZeroSeqExitsNonzeroNamingTheToken) {
  for (const char* flag :
       {"--model", "--pipeline", "--strategy", "--device"}) {
    const auto r = run_cli(std::string(flag) + " banana --ratio 0.5");
    EXPECT_EQ(r.exit_code, 2) << flag;
    EXPECT_NE(r.output.find("banana"), std::string::npos)
        << flag << ": " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << flag << ": " << r.output;
  }
  const auto zero = run_cli("--seq 0");
  EXPECT_EQ(zero.exit_code, 2);
  EXPECT_NE(zero.output.find("--seq"), std::string::npos) << zero.output;
  // Zero threads is junk too, not a request for one thread.
  const auto no_threads = run_cli("--threads 0 --json");
  EXPECT_EQ(no_threads.exit_code, 2);
  EXPECT_NE(no_threads.output.find("--threads"), std::string::npos)
      << no_threads.output;
  EXPECT_NE(no_threads.output.find("'0'"), std::string::npos)
      << no_threads.output;

  // Every accepted token selects what it names: the header line echoes
  // the model, the pipeline token, the device and the strategy token.
  const std::pair<const char*, const char*> accepted[] = {
      {"--model transformer --pipeline pytorch --strategy irregular "
       "--device a100",
       "Transformer · pytorch · seq 16 · A100 (simulated) · irregular @ 50%"},
      {"--model distilbert --pipeline tensorrt --strategy column "
       "--device v100s",
       "DistilBERT · tensorrt · seq 16 · V100S (simulated) · column @ 50%"},
      {"--model bert_large --pipeline fastertransformer --strategy tile",
       "BERT_LARGE · fastertransformer · seq 16 · V100S (simulated) · tile "
       "@ 50%"},
      {"--model bert_base --pipeline et --strategy attention-aware",
       "BERT_BASE · et · seq 16 · V100S (simulated) · attention-aware @ 50%"},
      {"--strategy none",
       "BERT_BASE · et · seq 16 · V100S (simulated) · none @ 50%"}};
  for (const auto& [args, header] : accepted) {
    const auto r = run_cli(std::string(args) + " --ratio 0.5 --seq 16");
    EXPECT_EQ(r.exit_code, 0) << args << ": " << r.output;
    EXPECT_NE(r.output.find(header), std::string::npos)
        << args << ": " << r.output;
  }
}

TEST(CliContract, MissingValueExitsNonzeroNamingTheFlag) {
  const auto r = run_cli("--requests");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--requests"), std::string::npos) << r.output;
}

TEST(CliContract, HelpListsEveryServeFlagAndExitsZero) {
  const auto r = run_cli("--help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag :
       {"--serve", "--requests", "--queue-cap", "--arrive", "--deadline",
        "--queue-budget", "--retries", "--backoff-ticks", "--preempt",
        "--batch", "--tokens", "--threads", "--json", "--weights",
        "--kv-precision", "--attention"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "--help is missing " << flag;
  }
}

TEST(CliContract, WeightsFlagSelectsLayoutAndRejectsJunk) {
  const auto bad = run_cli("--weights banana");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("banana"), std::string::npos) << bad.output;

  // Every layout serves and reports itself in the JSON config line.
  for (const char* layout : {"dense", "precomputed", "pruned", "int8"}) {
    const auto r = run_cli(std::string("--serve --json --requests 2 "
                                       "--batch 1 --tokens 2 --weights ") +
                           layout);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find(std::string("\"weights\": \"") + layout + "\""),
              std::string::npos)
        << r.output;
  }
  // The batched-scheduler mode carries the same field.
  const auto batch =
      run_cli("--batch 2 --json --tokens 2 --weights precomputed");
  ASSERT_EQ(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("\"weights\": \"precomputed\""),
            std::string::npos)
      << batch.output;

  // The fold rebuilds from dense projections, so combining it with a
  // pruning strategy must fail loudly, naming the flag.
  const auto conflict = run_cli(
      "--serve --model transformer --weights precomputed --strategy tile "
      "--ratio 0.5 --requests 2 --tokens 2");
  EXPECT_EQ(conflict.exit_code, 2);
  EXPECT_NE(conflict.output.find("--weights"), std::string::npos)
      << conflict.output;
}

TEST(CliContract, KvPrecisionFlagValidatesEchoesAndReachesThePool) {
  // Junk names both the flag and the token and exits 2.
  const auto bad = run_cli("--serve --kv-precision banana");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("--kv-precision"), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("banana"), std::string::npos) << bad.output;

  // The flag configures the paged KV pool, which only the serving modes
  // own — without one it would silently do nothing, so it exits 2 naming
  // the flag.
  const auto orphan = run_cli("--kv-precision int8 --seq 64");
  EXPECT_EQ(orphan.exit_code, 2);
  EXPECT_NE(orphan.output.find("--kv-precision"), std::string::npos)
      << orphan.output;

  // Default is lossless fp32, echoed in the --serve config line.
  const auto d = run_cli("--serve --json --requests 2 --batch 1 --tokens 2");
  ASSERT_EQ(d.exit_code, 0) << d.output;
  EXPECT_NE(d.output.find("\"kv_precision\": \"fp32\""), std::string::npos)
      << d.output;

  // int8 echoes itself — in --serve, --batch and --listen/--json alike —
  // and measurably shrinks the pool: the kv_bytes gauge in the metrics
  // snapshot must differ from the fp32 run, proving the flag reaches the
  // BlockAllocator rather than just the echo.
  const std::string serve_flags =
      "--serve --json --requests 2 --batch 1 --tokens 2 --kv-precision ";
  const auto i8 = run_cli(serve_flags + "int8");
  ASSERT_EQ(i8.exit_code, 0) << i8.output;
  EXPECT_NE(i8.output.find("\"kv_precision\": \"int8\""), std::string::npos)
      << i8.output;
  const auto kv_bytes = [](const std::string& s) {
    const auto pos = s.find("\"kv_bytes\":");
    return s.substr(pos, s.find(',', pos) - pos);
  };
  ASSERT_NE(d.output.find("\"kv_bytes\":"), std::string::npos) << d.output;
  EXPECT_NE(kv_bytes(d.output), kv_bytes(i8.output))
      << "fp32: " << d.output << "\nint8: " << i8.output;

  const auto batch =
      run_cli("--batch 2 --json --tokens 2 --kv-precision int8");
  ASSERT_EQ(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("\"kv_precision\": \"int8\""), std::string::npos)
      << batch.output;

  // Quantized serving stays deterministic: byte-identical reruns.
  const auto again = run_cli(serve_flags + "int8");
  ASSERT_EQ(again.exit_code, 0) << again.output;
  EXPECT_EQ(i8.output, again.output);
}

TEST(CliContract, AttentionFlagPinsOperatorAndRejectsJunk) {
  // Junk names both the flag and the token and exits 2 — --attention is
  // operator selection, distinct from the pruning --strategy flag.
  const auto bad = run_cli("--attention banana");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("--attention"), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("banana"), std::string::npos) << bad.output;
  // A *strategy* name is not an operator name: cross-flag confusion must
  // be caught, not silently accepted.
  const auto crossed = run_cli("--attention attention-aware");
  EXPECT_EQ(crossed.exit_code, 2);
  EXPECT_NE(crossed.output.find("attention-aware"), std::string::npos)
      << crossed.output;

  // Every operator name (and "auto") runs the encoder demo and echoes
  // itself into the --json config line.
  for (const char* op :
       {"modular", "fused", "otf", "partial_otf", "flash", "auto"}) {
    const auto r = run_cli(std::string("--json --seq 64 --attention ") + op);
    ASSERT_EQ(r.exit_code, 0) << op << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("\"attention\": \"") + op + "\""),
              std::string::npos)
        << r.output;
  }
  // The serving modes carry the same field.
  const auto serve = run_cli(
      "--serve --json --requests 2 --batch 1 --tokens 2 --attention flash");
  ASSERT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("\"attention\": \"flash\""), std::string::npos)
      << serve.output;
  const auto batch =
      run_cli("--batch 2 --json --tokens 2 --attention otf");
  ASSERT_EQ(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("\"attention\": \"otf\""), std::string::npos)
      << batch.output;

  // Pinning the operator changes the modeled latency (flash streams K/V
  // through fewer, larger tiles than otf at this length), proving the
  // flag reaches the dispatch rather than just the echo.
  const auto otf = run_cli("--json --seq 512 --attention otf");
  const auto flash = run_cli("--json --seq 512 --attention flash");
  ASSERT_EQ(otf.exit_code, 0) << otf.output;
  ASSERT_EQ(flash.exit_code, 0) << flash.output;
  const auto layer_us = [](const std::string& s) {
    const auto pos = s.find("\"layer_us\": ");
    return s.substr(pos, s.find(',', pos) - pos);
  };
  EXPECT_NE(layer_us(otf.output), layer_us(flash.output))
      << "otf: " << otf.output << "\nflash: " << flash.output;
}

TEST(CliContract, ServeJsonCarriesEveryMetricsRegistryScalar) {
  // The reference field list comes from a real InferenceServer — if the
  // registry gains or renames a metric, this test forces the CLI (and by
  // the same contract, bench/ablation_serving) to carry it.
  et::nn::ModelConfig cfg;
  cfg.num_layers = 1;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  std::vector<et::nn::EncoderWeights> layers = {
      et::nn::make_dense_encoder_weights(cfg, 1)};
  const auto opt =
      et::nn::options_for(et::nn::Pipeline::kET, cfg, 8, /*causal=*/true);
  et::serving::InferenceServer reference(et::nn::Model(&layers, opt, 8),
                                         {2, 4});

  const auto r = run_cli(
      "--serve --json --requests 3 --batch 2 --tokens 2 --queue-cap 4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const auto& field : reference.metrics().scalars()) {
    EXPECT_NE(r.output.find("\"" + field.name + "\":"), std::string::npos)
        << "--serve --json is missing metrics field '" << field.name << "'";
  }
  // Plus the run-configuration fields the bench rows also carry.
  for (const char* key :
       {"\"requests\":", "\"slots\":", "\"queue_capacity\":",
        "\"offered_per_tick\":", "\"threads\":", "\"time_us\":"}) {
    EXPECT_NE(r.output.find(key), std::string::npos)
        << "--serve --json is missing field " << key;
  }
}

TEST(CliContract, ServeOutputIsByteIdenticalAcrossRunsAndThreadCounts) {
  // The serving runtime's determinism contract, observed end to end
  // through the CLI: same arrival script => byte-identical output, at
  // 1 thread and at 4.
  const std::string flags =
      "--serve --json --requests 5 --batch 2 --tokens 3 --arrive 2 "
      "--queue-cap 8";
  const auto a = run_cli(flags);
  const auto b = run_cli(flags);
  ASSERT_EQ(a.exit_code, 0) << a.output;
  EXPECT_EQ(a.output, b.output);
  const auto threaded = run_cli(flags + " --threads 4");
  ASSERT_EQ(threaded.exit_code, 0) << threaded.output;
  // Thread count appears in the config line; everything below it — the
  // transcript-derived metrics — must match. Compare from the first
  // metrics field onward.
  const auto tail = [](const std::string& s) {
    return s.substr(s.find("\"time_us\""));
  };
  EXPECT_EQ(tail(a.output), tail(threaded.output));
}

TEST(CliContract, ResilienceFlagsValidateAndLandInTheJsonConfigLine) {
  // --preempt takes exactly on|off; junk names the flag and the value.
  const auto bad = run_cli("--preempt banana");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("--preempt"), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("banana"), std::string::npos) << bad.output;

  // A backoff without a retry budget could never fire — conflicting flags
  // exit 2 naming --backoff-ticks rather than silently doing nothing.
  const auto conflict = run_cli("--serve --backoff-ticks 2 --requests 2");
  EXPECT_EQ(conflict.exit_code, 2);
  EXPECT_NE(conflict.output.find("--backoff-ticks"), std::string::npos)
      << conflict.output;

  // The three knobs echo into the --json config line, so a saved JSON
  // blob always records the resilience policy that produced it.
  const auto r = run_cli(
      "--serve --json --requests 2 --batch 1 --tokens 2 --retries 3 "
      "--backoff-ticks 2 --preempt off");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"retries\": 3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"backoff_ticks\": 2"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"preempt\": false"), std::string::npos)
      << r.output;

  // Defaults: preemption on, no retries.
  const auto d = run_cli("--serve --json --requests 2 --batch 1 --tokens 2");
  ASSERT_EQ(d.exit_code, 0) << d.output;
  EXPECT_NE(d.output.find("\"retries\": 0"), std::string::npos) << d.output;
  EXPECT_NE(d.output.find("\"preempt\": true"), std::string::npos) << d.output;
}

TEST(CliContract, ListenFlagValidatesPortAndDrainTicks) {
  // Junk and out-of-range ports are named and refused, not truncated.
  const auto junk = run_cli("--listen banana");
  EXPECT_EQ(junk.exit_code, 2);
  EXPECT_NE(junk.output.find("banana"), std::string::npos) << junk.output;
  const auto range = run_cli("--listen 70000");
  EXPECT_EQ(range.exit_code, 2);
  EXPECT_NE(range.output.find("65535"), std::string::npos) << range.output;
  const auto ticks = run_cli("--drain-ticks banana");
  EXPECT_EQ(ticks.exit_code, 2);
  EXPECT_NE(ticks.output.find("--drain-ticks"), std::string::npos)
      << ticks.output;
  // And --help documents the whole network flag set.
  const auto help = run_cli("--help");
  ASSERT_EQ(help.exit_code, 0);
  for (const char* flag : {"--listen", "--drain-ticks"}) {
    EXPECT_NE(help.output.find(flag), std::string::npos)
        << "--help is missing " << flag;
  }
  // Checkpoints are always checksummed, so there is no opt-out flag:
  // --allow-unchecksummed is named and refused like any unknown flag.
  const auto legacy = run_cli("--allow-unchecksummed");
  EXPECT_EQ(legacy.exit_code, 2);
  EXPECT_NE(legacy.output.find("--allow-unchecksummed"), std::string::npos)
      << legacy.output;
}

TEST(CliContract, ListenShutsDownGracefullyOnStopSignals) {
  // The readiness line is the handshake: once it appears, a stop signal
  // must take the graceful path — drain, report, exit 0 — never the
  // default action. Both SIGINT and SIGTERM are wired.
  for (const int sig : {SIGINT, SIGTERM}) {
    const auto r = run_until_marker_then_signal(
        "--listen 0 --seq 64 --drain-ticks 8", "listening on 127.0.0.1:",
        sig);
    EXPECT_EQ(r.exit_code, 0) << "signal " << sig << ": " << r.output;
    EXPECT_NE(r.output.find("drained in"), std::string::npos)
        << "signal " << sig << ": " << r.output;
  }
}

TEST(CliContract, ListenQuickstartServesEtClientEndToEnd) {
  // docs/api.md's quickstart as written: et_cli --listen 0, et_client
  // twice against the port its readiness line names, then SIGINT.
  const std::string marker = "listening on 127.0.0.1:";
  std::vector<RunResult> clients;
  const auto r = run_until_marker_then_signal(
      "--listen 0", marker, SIGINT, [&](const std::string& out) {
        const std::size_t at = out.find(marker) + marker.size();
        const std::string port = out.substr(at, out.find('\n', at) - at);
        for (int i = 0; i < 2; ++i) {
          clients.push_back(run(std::string(ET_CLIENT_PATH) + " --port " +
                                port +
                                " --key demo-interactive --prompt 3,7"));
        }
      });
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("drained in"), std::string::npos) << r.output;
  ASSERT_EQ(clients.size(), 2u) << r.output;
  std::vector<std::string> token_lines;
  for (const RunResult& c : clients) {
    EXPECT_EQ(c.exit_code, 0) << c.output;
    EXPECT_NE(c.output.find("done: 8 token(s), stop=max_tokens"),
              std::string::npos)
        << c.output;
    std::string lines;
    for (std::size_t at = c.output.find("token["); at != std::string::npos;
         at = c.output.find("token[", at + 1)) {
      lines += c.output.substr(at, c.output.find('\n', at) - at + 1);
    }
    token_lines.push_back(lines);
  }
  EXPECT_NE(token_lines[0].find("token[7] = "), std::string::npos)
      << token_lines[0];
  EXPECT_EQ(token_lines[0], token_lines[1]);
}

TEST(CliContract, ServeRejectsAndExpiresUnderPressureDeterministically) {
  // Over-offered load on a tiny queue: the CLI surfaces backpressure and
  // deadline outcomes in its JSON (typed, countable), exit code stays 0 —
  // rejection is an answer, not an error.
  const auto r = run_cli(
      "--serve --json --requests 8 --batch 1 --tokens 4 --queue-cap 2 "
      "--queue-budget 1");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // 8 arrive at tick 0 into a 2-deep queue: 6 bounce immediately; of the
  // 2 queued, one is admitted at once and the other outlives its 1-tick
  // queue budget while the single slot is busy.
  EXPECT_NE(r.output.find("\"stop_rejected\": 6"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"stop_deadline_exceeded\": 1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"requests_completed\": 1"), std::string::npos)
      << r.output;
}

TEST(CliContract, BatchReportsZeroTokensPerSecWhenNoDeviceTimeAccrues) {
  // No decode step (zero tokens), or every slot retired by a fault before
  // any launch completed: no device time accrues, and the rate reads 0
  // rather than a 0/0 NaN, which is not valid JSON.
  for (const char* flags :
       {"--batch 2 --tokens 0",
        "--batch 4 --tokens 6 --inject-fault kernel=gen_qkv_batched"}) {
    SCOPED_TRACE(flags);
    const auto json = run_cli(std::string(flags) + " --json");
    ASSERT_EQ(json.exit_code, 0) << json.output;
    EXPECT_NE(json.output.find("\"time_us\": 0.0, \"tokens_per_sec\": 0.0,"),
              std::string::npos)
        << json.output;
    EXPECT_EQ(json.output.find("nan"), std::string::npos) << json.output;
    const auto text = run_cli(flags);
    ASSERT_EQ(text.exit_code, 0) << text.output;
    EXPECT_NE(text.output.find("(0.0 tokens/sec)"), std::string::npos)
        << text.output;
  }
}

}  // namespace
