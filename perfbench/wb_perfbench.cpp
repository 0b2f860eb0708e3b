// wb_perfbench — host-time benchmark of the wasmbench stack.
//
// Runs one named workload in this process, on one thread, with the
// engines' default configuration, and prints its end-to-end metrics as the
// last line of stdout (one JSON object). Every output is checked: against
// the committed goldens where one covers it, against the other engines and
// levels where none does, and against its own first execution on every
// later pass.
//
//   wb_perfbench --workload kernels|toolchain|replay --seed N --seconds S
//                --trace 0|1
//   wb_perfbench --self-test
//
// A traced run (--trace 1) also writes its spans as Chrome trace_event JSON
// to .bench_build/perfbench-<workload>.trace.json.
//
// Host time is the thread's CPU time (CLOCK_THREAD_CPUTIME_ID), so time
// the machine gives to other processes is not counted; the length of the
// timed phase is measured on the wall clock. Layers are timed from
// outside, around the calls into their public functions; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attr/attr.h"
#include "benchmarks/polybench.h"
#include "benchmarks/realworld.h"
#include "benchmarks/registry.h"
#include "core/study.h"
#include "fuzz/gen.h"
#include "ir/ir.h"
#include "js/engine.h"
#include "js/quicken.h"
#include "minic/minic.h"
#include "replay/record.h"
#include "replay/reduce.h"
#include "replay/replay.h"
#include "replay/trace.h"
#include "snap/snap.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "wasm/codec.h"
#include "wasm/jit/jit.h"
#include "wasm/quicken.h"
#include "wasm/validator.h"

namespace {

using namespace wb;
namespace json = support::json;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "wb_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string sha_hex(std::string_view s) {
  return support::sha256_hex(
      std::span(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path + " (run from the repository root)");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

json::Value load_json(const std::string& path) {
  std::string error;
  std::optional<json::Value> v = json::parse(read_file(path), error);
  if (!v) die(path + " is not valid JSON: " + error);
  return std::move(*v);
}

int64_t int_field(const json::Value& o, const char* key) {
  const json::Value* v = o.find(key);
  return v && v->is_int() ? v->as_int() : -1;
}

std::string str_field(const json::Value& o, const char* key) {
  const json::Value* v = o.find(key);
  return v && v->is_string() ? v->as_string() : std::string();
}

using IntFields = std::initializer_list<std::pair<const char*, int64_t>>;

/// The fields of `golden` whose integer value differs from `actual`, as
/// " name golden->actual" each; empty when all agree.
std::string int_mismatches(const json::Value& golden, IntFields actual) {
  std::string out;
  for (const auto& [key, value] : actual) {
    const int64_t want = int_field(golden, key);
    if (want != value) {
      out += std::string(" ") + key + " " + std::to_string(want) + "->" + std::to_string(value);
    }
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A fixed integer loop that touches none of the program: its time says
/// how fast the machine ran, so a slow spell can be told apart from a
/// regression. Printed next to the metrics, never one of them.
double machine_speed_ms() {
  const double t0 = cpu_seconds();
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 50'000'000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  volatile uint64_t sink = h;
  (void)sink;
  return (cpu_seconds() - t0) * 1e3;
}

// ------------------------------------------------------------- layers

enum class Layer : uint8_t {
  Item,  ///< one execution of a workload item; its self time is uncovered
  CoreBuild,
  MinicCompile,
  IrPipeline,
  BackendWasm,
  BackendJs,
  BackendNative,
  IrExec,
  EnvRunWasm,
  EnvRunJs,
  JsCompileScript,
  WasmInstantiate,
  ReplayRecord,
  ReplayCodec,
  ReplayVerify,
  ReplayReduce,
};
constexpr size_t kLayerCount = 16;
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "item",           "core.build",         "minic.compile",   "ir.pipeline",
    "backend.wasm",   "backend.js",         "backend.native",  "ir.exec",
    "env.run_wasm",   "env.run_js",         "js.compile_script", "wasm.instantiate",
    "replay.record",  "replay.codec",       "replay.verify",   "replay.reduce"};

/// Host-time spans around the calls into each layer. Off, span() is a
/// plain call. On, it keeps every span in memory (for the Chrome trace
/// written at exit) and accumulates total and self time per layer and
/// per item; self time is a span's time minus its child spans' time.
class Tracer {
 public:
  Tracer(bool on, size_t items) : on_(on), per_item_(items) {}

  [[nodiscard]] bool on() const { return on_; }
  void set_item(uint32_t item) { item_ = item; }

  template <typename F>
  auto span(Layer layer, F&& f) -> decltype(f()) {
    if (!on_) return f();
    open_.push_back({layer, cpu_seconds(), 0});
    decltype(f()) result = f();
    const double end = cpu_seconds();
    const Open o = open_.back();
    open_.pop_back();
    const double dur = end - o.start;
    if (!open_.empty()) open_.back().child += dur;
    const auto l = static_cast<size_t>(layer);
    total_[l] += dur;
    self_[l] += dur - o.child;
    per_item_[item_][l] += dur;
    spans_.push_back({layer, item_, o.start, dur});
    return result;
  }

  [[nodiscard]] double total(Layer l) const { return total_[static_cast<size_t>(l)]; }
  [[nodiscard]] double self(Layer l) const { return self_[static_cast<size_t>(l)]; }
  [[nodiscard]] double item_total(size_t item, Layer l) const {
    return per_item_[item][static_cast<size_t>(l)];
  }

  /// Chrome trace_event JSON ("X" complete events; ts/dur in µs of thread
  /// CPU time). Loads in chrome://tracing and Perfetto.
  void write_chrome_trace(const std::string& path,
                          const std::vector<std::string>& item_names) const {
    json::Array events;
    events.reserve(spans_.size());
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    for (const Span& s : spans_) {
      json::Object args;
      args.emplace_back("item", item_names[s.item]);
      json::Object e;
      e.emplace_back("name", kLayerNames[static_cast<size_t>(s.layer)]);
      e.emplace_back("cat", "host");
      e.emplace_back("ph", "X");
      e.emplace_back("ts", (s.start - t0) * 1e6);
      e.emplace_back("dur", s.dur * 1e6);
      e.emplace_back("pid", 1);
      e.emplace_back("tid", 1);
      e.emplace_back("args", std::move(args));
      events.emplace_back(std::move(e));
    }
    json::Object root;
    root.emplace_back("displayTimeUnit", "ms");
    root.emplace_back("traceEvents", std::move(events));
    std::ofstream out(path, std::ios::binary);
    if (!out) die("cannot write " + path);
    out << json::Value(std::move(root)).dump() << '\n';
  }

 private:
  struct Open {
    Layer layer;
    double start;
    double child;
  };
  struct Span {
    Layer layer;
    uint32_t item;
    double start;
    double dur;
  };
  bool on_;
  uint32_t item_ = 0;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::array<double, kLayerCount> total_{};
  std::array<double, kLayerCount> self_{};
  std::vector<std::array<double, kLayerCount>> per_item_;
};

/// core::build, or in a traced run the same public calls core::build makes
/// (src/core/study.cpp), each in its layer's span. artifact_digest(), part
/// of every execution's observables, holds the two paths to byte-identical
/// output: the warm-up pass, whose observables are the reference, always
/// calls core::build.
core::BuildResult build(const core::BenchSource& bench, core::InputSize size,
                        ir::OptLevel level, Tracer& t) {
  if (!t.on()) return core::build(bench, size, level);
  return t.span(Layer::CoreBuild, [&] {
    core::BuildResult out;
    minic::CompileOptions copts;
    copts.defines = bench.defines_for(size);
    std::string error;
    const auto compile_once = [&]() -> std::optional<ir::Module> {
      auto m = t.span(Layer::MinicCompile,
                      [&] { return minic::compile(bench.source, copts, error); });
      if (!m) return std::nullopt;
      const ir::PipelineInfo info =
          t.span(Layer::IrPipeline, [&] { return ir::run_pipeline(*m, level); });
      out.fast_math = info.fast_math;
      return m;
    };
    const auto fail = [&](const std::string& what) {
      out.ok = false;
      out.error = bench.name + what;
    };
    auto m1 = compile_once();
    if (!m1) {
      fail(": " + error);
      return out;
    }
    backend::WasmOptions wopts;
    wopts.fast_math = out.fast_math;
    out.wasm = t.span(Layer::BackendWasm,
                      [&] { return backend::compile_to_wasm(std::move(*m1), wopts); });
    if (!out.wasm.ok()) {
      fail(" wasm: " + out.wasm.error);
      return out;
    }
    auto m2 = compile_once();
    if (!m2) {
      fail(": " + error);
      return out;
    }
    backend::JsOptions jopts;
    jopts.fast_math = out.fast_math;
    const backend::JsArtifact js = t.span(
        Layer::BackendJs, [&] { return backend::compile_to_js(std::move(*m2), jopts); });
    if (!js.ok()) {
      fail(" js: " + js.error);
      return out;
    }
    out.js_source = js.source;
    auto m3 = compile_once();
    if (!m3) {
      fail(": " + error);
      return out;
    }
    out.native = t.span(Layer::BackendNative,
                        [&] { return backend::compile_to_native(std::move(*m3)); });
    return out;
  });
}

/// core::build runs minic::compile on the source once per backend.
constexpr uint64_t kMinicRunsPerBuild = 3;

/// Identity of a build's three artifacts: what core::build and its
/// decomposed traced form must agree on byte for byte.
std::string artifact_digest(const core::BuildResult& b) {
  return support::sha256_hex(b.wasm.binary) + "/" +
         sha_hex(b.js_source) + "/" + sha_hex(ir::to_text(b.native.module)) + "/" +
         std::to_string(b.native.code_size) + (b.fast_math ? "/fast" : "");
}

/// The probes of a traced run: the two load steps env::BrowserEnv performs
/// inside run_js and run_wasm, called once more on their own so that their
/// host cost can be seen. Outside the item's time.
void probe_load(const core::BuildResult& b, Tracer& t) {
  t.span(Layer::JsCompileScript, [&] {
    std::string error;
    return js::compile_script(b.js_source, error).has_value();
  });
  t.span(Layer::WasmInstantiate, [&] {
    const wasm::Instance inst(b.wasm.module, backend::make_import_bindings(b.wasm));
    return 0;
  });
}

// ----------------------------------------------------------- workloads

/// Work one execution of an item did. Deterministic: identical on every
/// pass, run and host, and unchanged by any change that only speeds up
/// the host.
struct WorkCounts {
  uint64_t wasm_ops = 0;
  uint64_t js_ops = 0;
  uint64_t wasm_code_bytes = 0;
  uint64_t js_source_bytes = 0;
  uint64_t replay_events = 0;
  uint64_t replay_trace_bytes = 0;
  uint64_t minic_source_bytes = 0;
};

/// The checker's verdict on the last execution of one item.
struct Verdict {
  std::string failed;  ///< non-empty: the operation itself failed
  std::string wrong;   ///< non-empty: it completed with a wrong output
  std::string observables;  ///< every virtual-clock observable, as text
  WorkCounts counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs: the timed set-up. Checker data (the
  /// goldens) is loaded by the constructor, outside set-up time.
  virtual void set_up() = 0;
  /// Drops what set_up() built.
  virtual void tear_down() = 0;
  [[nodiscard]] virtual size_t size() const = 0;
  [[nodiscard]] virtual std::string item_name(size_t i) const = 0;
  /// Items whose warm-up execution took less host time than this are
  /// repeated within each pass until one sample holds about this much, so
  /// that short items are measured as steadily as long ones. 0: no item
  /// is repeated (the workload's items are alike, and it runs many passes).
  [[nodiscard]] virtual double min_sample_s() const { return 0.05; }
  /// The timed operation.
  virtual void run(size_t i, Tracer& t) = 0;
  /// Traced runs only: extra layer calls outside the item's time.
  virtual void probe(size_t, Tracer&) {}
  /// Checks the outputs of the last run(i).
  virtual Verdict check(size_t i) = 0;
  /// Checks run once, on the warm-up execution of item i only, for outputs
  /// whose identity on later passes check() already enforces.
  virtual std::string deep_check(size_t) { return {}; }
  /// Checks across items, after the warm-up pass.
  virtual std::string check_across() { return {}; }
  /// Corrupts the outputs of the last run(i) the way the self-test plants
  /// a fault; check(i) or check_across() must then report it.
  virtual std::string plant_fault(size_t i) = 0;
  /// Layers whose calls execute the Wasm and the JS VM.
  [[nodiscard]] virtual Layer wasm_vm_layer() const { return Layer::EnvRunWasm; }
  [[nodiscard]] virtual Layer js_vm_layer() const { return Layer::EnvRunJs; }
};

const env::BrowserEnv& chrome_desktop() {
  static const env::BrowserEnv browser(env::Browser::Chrome, env::Platform::Desktop);
  return browser;
}

std::string page_observables(const env::PageMetrics& m) {
  return std::to_string(m.result) + "/" + std::to_string(m.cost_ps) + "/" +
         std::to_string(m.ops) + "/" + std::to_string(m.memory_bytes) + "/" +
         std::to_string(m.code_size) + "/" + std::to_string(m.boundary_crossings);
}

/// The 41 corpus kernels, built afresh (benchmarks::all_benchmarks()
/// builds them once per process and keeps them).
std::vector<core::BenchSource> corpus_sources() {
  std::vector<core::BenchSource> out;
  benchmarks::add_polybench(out);
  benchmarks::add_chstone(out);
  return out;
}

// kernels: the 41 corpus kernels at M/-O2, Chrome/Desktop, Cheerp — one
// wb_study cell per item, checked against goldens/study.json.
class Kernels final : public Workload {
 public:
  Kernels() {
    const json::Value golden = load_json("goldens/study.json");
    const json::Value* cells = golden.find("cells");
    if (!cells || !cells->is_array()) die("goldens/study.json has no cells");
    for (const json::Value& c : cells->as_array()) {
      if (str_field(c, "browser") == "Chrome" && str_field(c, "platform") == "Desktop" &&
          str_field(c, "size") == "M" && str_field(c, "level") == "O2" && c.find("wasm") &&
          c.find("js")) {
        goldens_[str_field(c, "benchmark")] = {*c.find("wasm"), *c.find("js")};
      }
    }
  }

  void set_up() override { sources_ = corpus_sources(); }
  void tear_down() override { sources_.clear(); }

  [[nodiscard]] size_t size() const override { return sources_.size(); }
  [[nodiscard]] std::string item_name(size_t i) const override { return sources_[i].name; }

  void run(size_t i, Tracer& t) override {
    build_ = build(sources_[i], core::InputSize::M, ir::OptLevel::O2, t);
    if (!build_.ok) return;
    wasm_ = t.span(Layer::EnvRunWasm, [&] { return chrome_desktop().run_wasm(build_.wasm); });
    js_ = t.span(Layer::EnvRunJs, [&] { return chrome_desktop().run_js(build_.js_source); });
  }

  void probe(size_t, Tracer& t) override {
    if (build_.ok) probe_load(build_, t);
  }

  Verdict check(size_t i) override {
    Verdict v;
    if (!build_.ok) v.failed = build_.error;
    else if (!wasm_.ok) v.failed = "wasm: " + wasm_.error;
    else if (!js_.ok) v.failed = "js: " + js_.error;
    if (!v.failed.empty()) return v;
    const auto golden = goldens_.find(sources_[i].name);
    if (golden == goldens_.end()) {
      v.wrong = "goldens/study.json has no M/O2/Chrome/Desktop cell; ";
      return v;
    }
    const auto against = [&](const char* engine, const env::PageMetrics& m,
                             const std::string& sha, const json::Value& golden) {
      std::string diff = int_mismatches(
          golden, {{"result", m.result},
                   {"cost_ps", static_cast<int64_t>(m.cost_ps)},
                   {"ops", static_cast<int64_t>(m.ops)},
                   {"memory_bytes", static_cast<int64_t>(m.memory_bytes)},
                   {"code_size", static_cast<int64_t>(m.code_size)},
                   {"boundary_crossings", static_cast<int64_t>(m.boundary_crossings)}});
      if (str_field(golden, "sha256") != sha) diff += " sha256 " + sha;
      if (!diff.empty()) v.wrong += std::string(engine) + " differs from goldens/study.json:" + diff + "; ";
    };
    against("wasm", wasm_, support::sha256_hex(build_.wasm.binary), golden->second.wasm);
    against("js", js_, sha_hex(build_.js_source), golden->second.js);
    if (wasm_.result != js_.result) v.wrong += "wasm and js results differ; ";
    v.observables = page_observables(wasm_) + " " + page_observables(js_) + " " +
                    artifact_digest(build_);
    v.counts.wasm_ops = wasm_.ops;
    v.counts.js_ops = js_.ops;
    v.counts.wasm_code_bytes = build_.wasm.binary.size();
    v.counts.js_source_bytes = build_.js_source.size();
    v.counts.minic_source_bytes = kMinicRunsPerBuild * sources_[i].source.size();
    return v;
  }

  std::string deep_check(size_t) override {
    const core::NativeMetrics native = core::run_native(build_);
    if (!native.ok) return "native IR executor failed: " + native.error;
    if (native.result != wasm_.result) {
      return "native IR executor result " + std::to_string(native.result) +
             " differs from wasm/js " + std::to_string(wasm_.result);
    }
    return {};
  }

  std::string plant_fault(size_t) override {
    js_.result ^= 1;
    return "flipped the JS checksum";
  }

 private:
  struct Golden {
    json::Value wasm;
    json::Value js;
  };
  std::map<std::string, Golden> goldens_;  ///< by benchmark name
  std::vector<core::BenchSource> sources_;
  core::BuildResult build_;
  env::PageMetrics wasm_;
  env::PageMetrics js_;
};

// toolchain: seeded fuzz::generate_program programs at all 7 levels — the
// traffic of wb_fuzz campaigns. Items are (program, level) pairs.
class Toolchain final : public Workload {
 public:
  static constexpr size_t kPrograms = 128;
  static constexpr std::array<ir::OptLevel, 7> kLevels = {
      ir::OptLevel::O0, ir::OptLevel::O1,    ir::OptLevel::O2, ir::OptLevel::O3,
      ir::OptLevel::Ofast, ir::OptLevel::Os, ir::OptLevel::Oz};

  explicit Toolchain(uint64_t seed, size_t programs = kPrograms)
      : seed_(seed), programs_(programs) {}

  void set_up() override {
    // The case seeds of a `wb_fuzz --seed=<seed>` campaign, in order.
    support::Rng master(seed_);
    for (size_t p = 0; p < programs_; ++p) {
      const uint64_t case_seed = master.split().next_u64();
      core::BenchSource src;
      char name[32];
      std::snprintf(name, sizeof name, "fuzz-%016llx",
                    static_cast<unsigned long long>(case_seed));
      src.name = name;
      src.suite = "fuzz";
      src.source = fuzz::generate_program(case_seed);
      sources_.push_back(std::move(src));
    }
    o0_result_.assign(programs_, 0);
  }
  void tear_down() override { sources_.clear(); }

  [[nodiscard]] size_t size() const override { return sources_.size() * kLevels.size(); }
  [[nodiscard]] std::string item_name(size_t i) const override {
    return sources_[i / kLevels.size()].name + "@" + ir::to_string(kLevels[i % kLevels.size()]);
  }
  /// The 896 items all take 2–10 ms; repeating them to 50 ms would make a
  /// pass last about 45 s. Both metrics sum or average over all 896, which
  /// evens out the noise of single items.
  [[nodiscard]] double min_sample_s() const override { return 0; }

  void run(size_t i, Tracer& t) override {
    Outcome& o = last_;
    o = Outcome{};
    const core::BenchSource& src = sources_[i / kLevels.size()];
    o.build = build(src, core::InputSize::M, kLevels[i % kLevels.size()], t);
    if (!o.build.ok) return;
    o.native = t.span(Layer::IrExec, [&] { return core::run_native(o.build); });
    o.wasm = t.span(Layer::EnvRunWasm, [&] { return chrome_desktop().run_wasm(o.build.wasm); });
    o.js = t.span(Layer::EnvRunJs, [&] { return chrome_desktop().run_js(o.build.js_source); });
  }

  void probe(size_t, Tracer& t) override {
    if (last_.build.ok) probe_load(last_.build, t);
  }

  Verdict check(size_t i) override {
    Verdict v;
    const Outcome& o = last_;
    if (!o.build.ok) v.failed = o.build.error;
    else if (!o.native.ok) v.failed = "native: " + o.native.error;
    else if (!o.wasm.ok) v.failed = "wasm: " + o.wasm.error;
    else if (!o.js.ok) v.failed = "js: " + o.js.error;
    if (!v.failed.empty()) return v;
    v.wrong = agreement(i);
    v.observables = std::to_string(o.native.result) + "/" + std::to_string(o.native.cost_ps) +
                    " " + page_observables(o.wasm) + " " + page_observables(o.js) + " " +
                    artifact_digest(o.build);
    v.counts.wasm_ops = o.wasm.ops;
    v.counts.js_ops = o.js.ops;
    v.counts.wasm_code_bytes = o.build.wasm.binary.size();
    v.counts.js_source_bytes = o.build.js_source.size();
    v.counts.minic_source_bytes =
        kMinicRunsPerBuild * sources_[i / kLevels.size()].source.size();
    return v;
  }

  std::string deep_check(size_t) override {
    const backend::WasmArtifact& a = last_.build.wasm;
    if (const auto err = wasm::validate(a.module)) {
      return "emitted module fails wasm::validate: " + err->message;
    }
    std::string error;
    const std::optional<wasm::Module> decoded =
        wasm::decode(a.binary, &error);
    if (!decoded) return "emitted module does not decode: " + error;
    if (wasm::encode(*decoded) != a.binary) return "decode + re-encode changes the bytes";
    return {};
  }

  std::string plant_fault(size_t i) override {
    Outcome& o = last_;
    ++o.native.result;
    ++o.wasm.result;
    ++o.js.result;
    return std::string("moved every engine's result at ") + ir::to_string(kLevels[i % kLevels.size()]);
  }

 private:
  struct Outcome {
    core::BuildResult build;
    core::NativeMetrics native;
    env::PageMetrics wasm;
    env::PageMetrics js;
  };

  /// IR executor, Wasm and JS agree at each level, and every level agrees
  /// with -O0 except -Ofast, whose fast-math reassociation may change
  /// float results (the same carve-out as wb_fuzz).
  std::string agreement(size_t i) {
    const Outcome& o = last_;
    const size_t p = i / kLevels.size();
    const ir::OptLevel level = kLevels[i % kLevels.size()];
    if (o.wasm.result != o.native.result || o.js.result != o.native.result) {
      return "engines disagree at " + std::string(ir::to_string(level)) + ": native " +
             std::to_string(o.native.result) + " wasm " + std::to_string(o.wasm.result) +
             " js " + std::to_string(o.js.result);
    }
    if (level == ir::OptLevel::O0) {
      o0_result_[p] = o.native.result;
    } else if (level != ir::OptLevel::Ofast && o.native.result != o0_result_[p]) {
      return std::string(ir::to_string(level)) + " result " + std::to_string(o.native.result) +
             " differs from -O0's " + std::to_string(o0_result_[p]);
    }
    return {};
  }

  uint64_t seed_;
  size_t programs_;
  std::vector<core::BenchSource> sources_;
  std::vector<int32_t> o0_result_;
  Outcome last_;
};

// replay: the 24-trace record_corpus set. One item records a trace, round
// trips it through the codec, verifies it and reduces it at the wb_replay
// gate's ddmin limit; checked against goldens/replay.json.
class Replay final : public Workload {
 public:
  /// wb_replay's kGateDdminLimit.
  static constexpr size_t kGateDdminLimit = 64;
  /// The one item whose reduction runs ddmin at length: about 7 s, a third
  /// of a pass. It is reduced (and checked) once per run, on its first
  /// execution; later executions reuse that result, so that two timed
  /// passes fit in a run of --seconds 30.
  static constexpr const char* kReducedOnce = "heat-3d-math-js";

  Replay() {
    const json::Value golden = load_json("goldens/replay.json");
    const json::Value* rows = golden.find("rows");
    if (!rows || !rows->is_array()) die("goldens/replay.json has no rows");
    for (const json::Value& row : rows->as_array()) goldens_[str_field(row, "name")] = row;
  }

  void set_up() override {
    // The same workloads, options and names as replay::record_corpus.
    for (benchmarks::RealWorldProgram& prog : benchmarks::real_world_programs()) {
      if (!prog.ok) die("real-world program " + prog.name + ": " + prog.error);
      items_.push_back({prog.name, prog.is_wasm, std::move(prog.artifact),
                        std::move(prog.js_source), prog.options});
    }
    for (const benchmarks::ManualJs& mj : benchmarks::manual_js_benchmarks()) {
      items_.push_back({slugify(mj.name), false, {}, mj.source, {}});
    }
    int with_imports = 0;
    for (const core::BenchSource& bench : corpus_sources()) {
      if (with_imports >= 2) break;
      core::BuildResult b = core::build(bench, core::InputSize::XS, ir::OptLevel::O2);
      if (!b.ok || b.wasm.imports.empty()) continue;
      ++with_imports;
      items_.push_back({"import-" + bench.name + "-wasm", true, std::move(b.wasm), {}, {}});
    }
    std::sort(items_.begin(), items_.end(),
              [](const Item& a, const Item& b) { return a.name < b.name; });
    results_.assign(items_.size(), 0);
  }
  void tear_down() override {
    items_.clear();
    reduced_once_.reset();
  }

  [[nodiscard]] size_t size() const override { return items_.size(); }
  [[nodiscard]] std::string item_name(size_t i) const override { return items_[i].name; }
  [[nodiscard]] Layer wasm_vm_layer() const override { return Layer::ReplayRecord; }
  [[nodiscard]] Layer js_vm_layer() const override { return Layer::ReplayRecord; }

  void run(size_t i, Tracer& t) override {
    const Item& item = items_[i];
    const bool once = item.name == kReducedOnce;
    last_ = Last{};
    last_.trace = t.span(Layer::ReplayRecord, [&] {
      return item.is_wasm
                 ? replay::record_wasm(item.name, item.artifact, chrome_desktop(),
                                       item.options, last_.error)
                 : replay::record_js(item.name, item.js_source, chrome_desktop(),
                                     item.options, last_.error);
    });
    if (!last_.trace) return;
    t.span(Layer::ReplayCodec, [&] {
      last_.bytes = replay::serialize(*last_.trace);
      std::string error;
      if (const auto parsed = replay::parse(last_.bytes, error)) {
        last_.reencoded = replay::serialize(*parsed);
      } else {
        last_.codec_error = error;
      }
      return 0;
    });
    last_.verified = t.span(Layer::ReplayVerify, [&] { return replay::verify(*last_.trace); });
    if (once && reduced_once_) {
      last_.reduced = *reduced_once_;
      return;
    }
    const double t0 = cpu_seconds();
    last_.reduced = t.span(Layer::ReplayReduce,
                           [&] { return replay::reduce_trace(*last_.trace, kGateDdminLimit); });
    if (once) {
      reduced_once_ = last_.reduced;
      std::printf("replay: reduce_trace of %s took %.3f s, once per run\n", kReducedOnce,
                  cpu_seconds() - t0);
    }
  }

  Verdict check(size_t i) override {
    Verdict v;
    const auto found = goldens_.find(items_[i].name);
    if (found == goldens_.end()) {
      v.wrong = "goldens/replay.json has no row; ";
      return v;
    }
    const json::Value& golden = found->second;
    if (!last_.trace) {
      v.failed = "record failed: " + last_.error;
      return v;
    }
    if (!last_.codec_error.empty()) v.wrong += "trace does not parse: " + last_.codec_error + "; ";
    else if (last_.reencoded != last_.bytes) v.wrong += "codec round trip changes the bytes; ";
    if (!last_.verified.ok) v.wrong += "replay not bit-exact: " + last_.verified.error + "; ";
    if (!last_.reduced.ok) {
      v.failed = "reduce failed: " + last_.reduced.error;
      return v;
    }
    const std::string digest = support::sha256_hex(last_.bytes);
    const std::string reduced_digest = replay::digest_hex(last_.reduced.reduced);
    const replay::TraceFooter& f = last_.trace->footer;
    std::string diff = int_mismatches(
        golden, {{"events", static_cast<int64_t>(last_.trace->events.size())},
                      {"trace_bytes", static_cast<int64_t>(last_.bytes.size())},
                      {"reduced_events", static_cast<int64_t>(last_.reduced.events_after)},
                      {"reduced_bytes", static_cast<int64_t>(last_.reduced.bytes_after)}});
    if (const json::Value* gm = golden.find("metrics")) {
      diff += int_mismatches(
          *gm, {{"result", f.result},
                {"cost_ps", static_cast<int64_t>(f.cost_ps)},
                {"memory_bytes", static_cast<int64_t>(f.memory_bytes)},
                {"code_size", static_cast<int64_t>(f.code_size)},
                {"ops", static_cast<int64_t>(f.ops)},
                {"boundary_crossings", static_cast<int64_t>(f.boundary_crossings)}});
    } else {
      diff += " no metrics";
    }
    if (digest != str_field(golden, "trace_digest")) diff += " trace_digest " + digest;
    if (reduced_digest != str_field(golden, "reduced_digest")) {
      diff += " reduced_digest " + reduced_digest;
    }
    if (!diff.empty()) v.wrong += "differs from goldens/replay.json:" + diff + "; ";
    results_[i] = f.result;
    v.observables = digest + " " + reduced_digest + " " + std::to_string(f.result) + "/" +
                    std::to_string(f.cost_ps) + "/" + std::to_string(f.ops);
    (items_[i].is_wasm ? v.counts.wasm_ops : v.counts.js_ops) = f.ops;
    (items_[i].is_wasm ? v.counts.wasm_code_bytes : v.counts.js_source_bytes) =
        last_.trace->program.size();
    v.counts.replay_events = last_.trace->events.size();
    v.counts.replay_trace_bytes = last_.bytes.size();
    return v;
  }

  /// The Wasm and JS implementations of Hyphenopoly and FFmpeg compute the
  /// same thing and must return the same result.
  std::string check_across() override {
    std::string out;
    if (goldens_.size() != items_.size()) {
      out += "goldens/replay.json has " + std::to_string(goldens_.size()) +
             " rows, the corpus " + std::to_string(items_.size()) + "; ";
    }
    for (const char* stem : {"hyphen-en-us", "hyphen-fr", "ffmpeg"}) {
      const std::optional<int32_t> w = result_of(std::string(stem) + "-wasm");
      const std::optional<int32_t> j = result_of(std::string(stem) + "-js");
      if (!w || !j) out += std::string(stem) + ": missing from the corpus; ";
      else if (*w != *j) {
        out += std::string(stem) + ": wasm " + std::to_string(*w) + " != js " +
               std::to_string(*j) + "; ";
      }
    }
    return out;
  }

  std::string plant_fault(size_t) override {
    last_.bytes[last_.bytes.size() / 2] ^= 0x5a;
    return "corrupted one byte of the serialized trace";
  }

 private:
  struct Item {
    std::string name;
    bool is_wasm;
    backend::WasmArtifact artifact;
    std::string js_source;
    env::RunOptions options;
  };
  struct Last {
    std::string error;
    std::optional<replay::Trace> trace;
    std::vector<uint8_t> bytes;
    std::vector<uint8_t> reencoded;
    std::string codec_error;
    replay::ReplayResult verified;
    replay::ReduceResult reduced;
  };

  /// record_corpus's slug: "Heat-3d (math.js)" -> "heat-3d-math-js".
  static std::string slugify(const std::string& name) {
    std::string slug;
    for (const char c : name) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else if (!slug.empty() && slug.back() != '-') {
        slug += '-';
      }
    }
    while (!slug.empty() && slug.back() == '-') slug.pop_back();
    return slug;
  }

  std::optional<int32_t> result_of(const std::string& name) const {
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].name == name) return results_[i];
    }
    return std::nullopt;
  }

  std::map<std::string, json::Value> goldens_;  ///< by item name
  std::vector<Item> items_;
  std::vector<int32_t> results_;
  std::optional<replay::ReduceResult> reduced_once_;
  Last last_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "kernels") return std::make_unique<Kernels>();
  if (name == "toolchain") return std::make_unique<Toolchain>(seed);
  if (name == "replay") return std::make_unique<Replay>();
  die("unknown workload '" + name + "' (kernels, toolchain, replay)");
}

// ------------------------------------------------------------- harness

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

/// Result of one timed phase: per-item samples (seconds per execution).
/// Both metrics start from each item's median over the phase's passes,
/// so a slow spell of the machine that covers less than half of the
/// passes moves neither.
struct Phase {
  size_t passes = 0;
  std::vector<std::vector<double>> samples;  ///< [item][pass]
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> wrong;

  /// Items per second of a pass in which every item takes its median time.
  [[nodiscard]] double items_per_s() const {
    double seconds = 0;
    for (const auto& s : samples) seconds += median(s);
    return static_cast<double>(samples.size()) / seconds;
  }
  [[nodiscard]] double item_ms_gmean() const {
    double log_sum = 0;
    for (const auto& s : samples) log_sum += std::log(median(s) * 1e3);
    return std::exp(log_sum / static_cast<double>(samples.size()));
  }
};

/// Set-up time: the median of repeated builds of the workload's inputs,
/// taken before the warm-up: at least 21, and more until they add up to
/// 0.2 s, so that a set-up of microseconds is measured as steadily as one
/// of tens of milliseconds. Each build is dropped, untimed, before the
/// next, so the process never holds two sets of inputs.
double time_set_up(Workload& w) {
  std::vector<double> samples;
  double spent = 0;
  while (samples.size() < 21 || spent < 0.2) {
    w.tear_down();
    const double t0 = cpu_seconds();
    w.set_up();
    samples.push_back(cpu_seconds() - t0);
    spent += samples.back();
  }
  return median(samples);
}

class Harness {
 public:
  Harness(Workload& w, uint64_t seed) : w_(w), rng_(seed) {}

  /// One untimed pass in item order: every execution is checked in full,
  /// and its observables become the reference for every later pass.
  void warm_up() {
    Tracer off(false, w_.size());
    reference_.resize(w_.size());
    counts_.resize(w_.size());
    reps_.assign(w_.size(), 1);
    for (size_t i = 0; i < w_.size(); ++i) {
      const double t0 = cpu_seconds();
      w_.run(i, off);
      const double spent = cpu_seconds() - t0;
      reps_[i] = static_cast<uint32_t>(std::clamp(w_.min_sample_s() / spent, 1.0, 16.0));
      Verdict v = w_.check(i);
      if (!v.failed.empty()) {
        ++warm_failed_;
        std::printf("  warm-up: %s failed: %s\n", w_.item_name(i).c_str(), v.failed.c_str());
        continue;
      }
      if (v.wrong.empty()) v.wrong = w_.deep_check(i);
      if (!v.wrong.empty()) wrong_.push_back(w_.item_name(i) + ": " + v.wrong);
      reference_[i] = v.observables;
      counts_[i] = v.counts;
    }
    if (std::string across = w_.check_across(); !across.empty()) wrong_.push_back(across);
  }

  /// One timed pass over every item, in a seeded order, into `ph`.
  void pass(Phase& ph, Tracer& t) {
    const size_t n = w_.size();
    ph.samples.resize(n);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng_.next_below(i)]);
    for (const size_t i : order) {
      t.set_item(static_cast<uint32_t>(i));
      const uint32_t reps = reps_[i];
      double spent = 0;
      bool failed = false;
      for (uint32_t r = 0; r < reps; ++r) {
        const double t0 = cpu_seconds();
        t.span(Layer::Item, [&] {
          w_.run(i, t);
          return 0;
        });
        spent += cpu_seconds() - t0;
        const Verdict v = w_.check(i);
        if (t.on()) w_.probe(i, t);
        if (!v.failed.empty()) {
          failed = true;
          continue;
        }
        if (!v.wrong.empty()) ph.wrong.push_back(w_.item_name(i) + ": " + v.wrong);
        if (v.observables != reference_[i]) {
          ph.wrong.push_back(w_.item_name(i) + ": observables changed from the warm-up pass");
        }
      }
      ph.samples[i].push_back(spent / reps);
      ++ph.attempted;
      if (failed) ++ph.failed;
    }
    ++ph.passes;
  }

  [[nodiscard]] const std::vector<WorkCounts>& counts() const { return counts_; }
  [[nodiscard]] uint32_t reps(size_t i) const { return reps_[i]; }
  [[nodiscard]] const std::vector<std::string>& wrong() const { return wrong_; }
  [[nodiscard]] uint64_t warm_failed() const { return warm_failed_; }

  /// Digest over every item's reference observables: equal across runs
  /// of one seed, traced or not.
  [[nodiscard]] std::string observables_digest() const {
    std::string all;
    for (const std::string& r : reference_) all += r + "\n";
    return sha_hex(all);
  }

 private:
  Workload& w_;
  support::Rng rng_;
  std::vector<std::string> reference_;
  std::vector<WorkCounts> counts_;
  std::vector<uint32_t> reps_;
  std::vector<std::string> wrong_;
  uint64_t warm_failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_metrics(const std::vector<Metric>& ms) {
  std::string out;
  for (const Metric& m : ms) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_engine_config() {
#ifdef __OPTIMIZE__
  const char* optimised = "yes";
#else
  const char* optimised = "no";
#endif
  std::printf(
      "engine: wasm_quicken=%s js_quicken=%s jit=%s jit_available=%s snap=%s "
      "attr=%s gc=marksweep jobs=1 threads=1 optimised_build=%s\n",
      wasm::quicken_default() ? "on" : "off", js::quicken_default() ? "on" : "off",
      wasm::jit::jit_default() ? "on" : "off", wasm::jit::available() ? "yes" : "no",
      snap::snap_default() ? "on" : "off", attr::enabled() ? "on" : "off", optimised);
}

/// Refuses configurations that would measure a different program.
void refuse_other_configurations() {
  for (const char* var :
       {"WB_NO_QUICKEN", "WB_NO_JS_QUICKEN", "WB_NO_JIT", "WB_NO_SNAP", "WB_JOBS"}) {
    if (std::getenv(var)) {
      die(std::string(var) +
          " is set: the benchmark measures the default engine configuration at one job; unset it");
    }
  }
#ifndef __OPTIMIZE__
  die("built without optimisation: configure with -DCMAKE_BUILD_TYPE=Release");
#endif
}

/// The per-layer metrics of a traced run. Times are host seconds per pass
/// over the traced passes.
std::vector<Metric> layer_metrics(const Workload& w, const Harness& h, const Tracer& on,
                                  const Phase& plain, const Phase& traced) {
  const double passes = static_cast<double>(traced.passes);
  const auto per_pass = [&](Layer l) { return on.total(l) / passes; };
  // Work counts are for one execution of every item, whatever the repeat
  // counts (which the warm-up's host time sets); rates weigh the repeats.
  WorkCounts c;
  uint64_t minic_bytes_executed = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    const WorkCounts& k = h.counts()[i];
    c.wasm_ops += k.wasm_ops;
    c.js_ops += k.js_ops;
    c.wasm_code_bytes += k.wasm_code_bytes;
    c.js_source_bytes += k.js_source_bytes;
    c.replay_events += k.replay_events;
    c.replay_trace_bytes += k.replay_trace_bytes;
    minic_bytes_executed += h.reps(i) * k.minic_source_bytes;
  }
  // Virtual ops per host second of the calls that run each VM, over the
  // items that run it.
  const auto mops = [&](Layer l, uint64_t WorkCounts::*ops) {
    double secs = 0;
    double n = 0;
    for (size_t i = 0; i < w.size(); ++i) {
      if (h.counts()[i].*ops == 0) continue;
      secs += on.item_total(i, l);
      n += static_cast<double>(h.reps(i) * (h.counts()[i].*ops));
    }
    return secs > 0 ? n * passes / secs / 1e6 : 0.0;
  };
  const double minic_s = per_pass(Layer::MinicCompile);
  return {
    {"core.build_s", per_pass(Layer::CoreBuild), "s"},
    {"minic.compile_s", minic_s, "s"},
    {"minic.source_bytes_per_s",
     minic_s > 0 ? static_cast<double>(minic_bytes_executed) / minic_s : 0.0, "B/s"},
    {"ir.pipeline_s", per_pass(Layer::IrPipeline), "s"},
    {"backend.wasm_s", per_pass(Layer::BackendWasm), "s"},
    {"backend.js_s", per_pass(Layer::BackendJs), "s"},
    {"backend.native_s", per_pass(Layer::BackendNative), "s"},
    {"ir.exec_s", per_pass(Layer::IrExec), "s"},
    {"js.compile_script_s", per_pass(Layer::JsCompileScript), "s"},
    {"wasm.instantiate_s", per_pass(Layer::WasmInstantiate), "s"},
    {"env.run_js_s", per_pass(Layer::EnvRunJs), "s"},
    {"js.mops_per_s", mops(w.js_vm_layer(), &WorkCounts::js_ops), "Mop/s"},
    {"env.run_wasm_s", per_pass(Layer::EnvRunWasm), "s"},
    {"wasm.mops_per_s", mops(w.wasm_vm_layer(), &WorkCounts::wasm_ops), "Mop/s"},
    {"replay.record_s", per_pass(Layer::ReplayRecord), "s"},
    {"replay.codec_s", per_pass(Layer::ReplayCodec), "s"},
    {"replay.verify_s", per_pass(Layer::ReplayVerify), "s"},
    {"replay.reduce_s", per_pass(Layer::ReplayReduce), "s"},
    {"wasm.ops", static_cast<double>(c.wasm_ops), "count"},
    {"js.ops", static_cast<double>(c.js_ops), "count"},
    {"wasm.code_bytes", static_cast<double>(c.wasm_code_bytes), "B"},
    {"js.source_bytes", static_cast<double>(c.js_source_bytes), "B"},
    {"replay.events", static_cast<double>(c.replay_events), "count"},
    {"replay.trace_bytes", static_cast<double>(c.replay_trace_bytes), "B"},
    {"core.build_self_s", on.self(Layer::CoreBuild) / passes, "s"},
    {"env.run_wasm_self_s",
     (on.total(Layer::EnvRunWasm) - on.total(Layer::WasmInstantiate)) / passes, "s"},
    {"env.run_js_self_s",
     (on.total(Layer::EnvRunJs) - on.total(Layer::JsCompileScript)) / passes, "s"},
    {"item.uncovered_s", on.self(Layer::Item) / passes, "s"},
    {"trace.items_per_s", traced.items_per_s(), "1/s"},
    {"trace.overhead_pct",
     100.0 * (plain.items_per_s() - traced.items_per_s()) / plain.items_per_s(), "%"},
  };
}

int run_benchmark(const Options& opt) {
  print_engine_config();
  const double speed_start = machine_speed_ms();

  const std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed);
  const double setup_s = time_set_up(*w);

  Harness h(*w, opt.seed);
  const double warm0 = wall_seconds();
  h.warm_up();
  const double warm_s = wall_seconds() - warm0;

  Tracer off(false, w->size());
  Tracer on(true, w->size());
  // The timed phase: rounds of one pass (a traced run: one untraced and
  // one traced pass, so that both see the machine in the same state and
  // their difference in items_per_s is the tracing overhead). At least
  // two timed passes, so that no metric rests on one (a traced run: one
  // round), and more rounds while another round of the average length
  // still ends within the run's seconds of wall time.
  Phase plain;
  std::optional<Phase> traced;
  if (opt.trace) traced.emplace();
  const double min_rounds = opt.trace ? 1 : 2;
  const double start = wall_seconds();
  for (double rounds = 1;; ++rounds) {
    h.pass(plain, off);
    if (traced) h.pass(*traced, on);
    if (rounds >= min_rounds && (wall_seconds() - start) * (rounds + 1) / rounds > opt.seconds) {
      break;
    }
  }
  const double timed_s = wall_seconds() - start;
  const double speed_end = machine_speed_ms();

  std::vector<std::string> wrong = h.wrong();
  wrong.insert(wrong.end(), plain.wrong.begin(), plain.wrong.end());
  if (traced) wrong.insert(wrong.end(), traced->wrong.begin(), traced->wrong.end());
  for (size_t k = 0; k < wrong.size() && k < 10; ++k) {
    std::printf("WRONG: %s\n", wrong[k].c_str());
  }

  std::printf("workload=%s seed=%llu items=%zu warm_up_s=%.3f passes=%zu wall_s=%.3f "
              "observables_sha256=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), w->size(),
              warm_s, plain.passes, timed_s, h.observables_digest().c_str());
  std::printf("machine_speed_ms: start=%.2f end=%.2f (fixed loop, not a metric)\n",
              speed_start, speed_end);

  const auto print_passes = [&](const char* label, const Phase& ph) {
    for (size_t p = 0; p < ph.passes; ++p) {
      double sum = 0;
      for (size_t i = 0; i < w->size(); ++i) sum += ph.samples[i][p];
      std::printf("%s %zu item_s=%.4f\n", label, p, sum);
    }
  };
  print_passes("pass", plain);
  if (traced) print_passes("traced pass", *traced);

  std::vector<Metric> metrics;
  uint64_t attempted = plain.attempted + (traced ? traced->attempted : 0);
  uint64_t failed = plain.failed + (traced ? traced->failed : 0);
  if (!opt.trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"items_per_s", plain.items_per_s(), "1/s"},
               {"item_ms_gmean", plain.item_ms_gmean(), "ms"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    metrics = layer_metrics(*w, h, on, plain, *traced);
    std::vector<std::string> names;
    for (size_t i = 0; i < w->size(); ++i) names.push_back(w->item_name(i));
    const std::string path = ".bench_build/perfbench-" + opt.workload + ".trace.json";
    std::filesystem::create_directories(".bench_build");
    on.write_chrome_trace(path, names);
    std::printf("trace: wrote %s\n", path.c_str());
  }
  failed += h.warm_failed();
  attempted += w->size();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              wrong.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), format_metrics(metrics).c_str());
  return 0;
}

/// Each workload's checker must accept a real output and reject a planted
/// wrong one. Small: one kernel, one generated program, one trace.
int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("self-test: %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
    if (!ok) ++bad;
  };
  Tracer off(false, 1);
  {
    Kernels k;
    k.set_up();
    size_t i = 0;
    while (k.item_name(i) != "jacobi-1d") ++i;
    k.run(i, off);
    Verdict v = k.check(i);
    expect(v.failed.empty() && v.wrong.empty() && k.deep_check(i).empty(),
           "kernels accepts jacobi-1d as built " + v.wrong);
    const std::string fault = k.plant_fault(i);
    v = k.check(i);
    expect(!v.wrong.empty(), "kernels rejects a run that " + fault + ": " + v.wrong);
  }
  {
    Toolchain tc(1, 1);
    tc.set_up();
    std::string first_wrong;
    for (size_t i = 0; i < tc.size(); ++i) {
      tc.run(i, off);
      const Verdict v = tc.check(i);
      if (first_wrong.empty()) first_wrong = v.failed + v.wrong + tc.deep_check(i);
    }
    expect(first_wrong.empty(), "toolchain accepts one program at all 7 levels " + first_wrong);
    const size_t o2 = 2;
    tc.run(o2, off);
    const std::string fault = tc.plant_fault(o2);
    const Verdict v = tc.check(o2);
    expect(!v.wrong.empty(), "toolchain rejects a run that " + fault + ": " + v.wrong);
  }
  {
    Replay r;
    r.set_up();
    size_t i = 0;
    while (r.item_name(i) != "longjs-mul-wasm") ++i;
    r.run(i, off);
    Verdict v = r.check(i);
    expect(v.failed.empty() && v.wrong.empty(), "replay accepts longjs-mul-wasm " + v.wrong);
    const std::string fault = r.plant_fault(i);
    v = r.check(i);
    expect(!v.wrong.empty(), "replay rejects a run that " + fault + ": " + v.wrong);
  }
  std::printf("self-test: %s\n", bad ? "FAILED" : "passed");
  return bad ? 1 : 0;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else {
      die("unknown argument " + arg +
          "\nusage: wb_perfbench --workload kernels|toolchain|replay --seed N "
          "--seconds S --trace 0|1 | --self-test");
    }
  }
  if (!opt.self_test && !have_workload) die("--workload is required");
  if (!(opt.seconds > 0)) die("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  refuse_other_configurations();
  return opt.self_test ? self_test() : run_benchmark(opt);
}
