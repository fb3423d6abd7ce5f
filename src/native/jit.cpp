#include "native/jit.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

extern char** environ;

namespace f90d::native {

namespace {

/// FNV-1a over the source: names the scratch files only (the cache map is
/// keyed by the structural key, so collisions here are harmless).
unsigned long long fnv1a(const std::string& s) {
  unsigned long long h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

const char* compiler_path() {
#ifdef F90D_NATIVE_CXX
  if (const char* env = std::getenv("F90D_NATIVE_CXX"); env && *env)
    return env;
  return F90D_NATIVE_CXX;
#else
  return nullptr;
#endif
}

bool disabled_by_env() {
  const char* env = std::getenv("F90D_NATIVE");
  return env != nullptr && std::string(env) == "0";
}

/// Runs argv[0] (searched on PATH, no shell) with stdout and stderr sent
/// to `log`; true when it exits with status 0.  A program that cannot be
/// started leaves the reason in the log instead.
bool run_logged(const std::vector<std::string>& args, const std::string& log) {
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  if (::posix_spawn_file_actions_init(&fa) != 0) return false;
  int err = ::posix_spawn_file_actions_addopen(
      &fa, STDOUT_FILENO, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err == 0)
    err = ::posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO,
                                             STDERR_FILENO);
  pid_t pid = 0;
  if (err == 0)
    err = ::posix_spawnp(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&fa);
  if (err != 0) {
    std::ofstream(log, std::ios::app)
        << "cannot run " << args[0] << ": " << std::strerror(err) << "\n";
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

NativeCache& NativeCache::instance() {
  static NativeCache cache;
  return cache;
}

NativeCache::~NativeCache() {
  // rmdir only removes an empty directory: a failed compile's .cpp and
  // .log stay behind (with it) so its compiler error can still be read.
  if (!dir_.empty()) ::rmdir(dir_.c_str());
}

bool NativeCache::available() {
  if (compiler_path() == nullptr || disabled_by_env()) return false;
  return ensure_probe();
}

KernelFn NativeCache::get_or_compile(const std::string& key,
                                     const SourceFn& generate) {
  {
    std::shared_lock lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (!ensure_probe()) return nullptr;
  // Cold path: register (or join) the in-flight record for this key, then
  // generate and compile with no cache lock held so distinct keys overlap.
  std::shared_ptr<Inflight> fl;
  bool owner = false;
  {
    std::unique_lock lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    auto [fit, inserted] = inflight_.try_emplace(key);
    if (inserted) {
      fit->second = std::make_shared<Inflight>();
      owner = true;
    }
    fl = fit->second;
  }
  if (!owner) {
    std::unique_lock wl(fl->m);
    fl->cv.wait(wl, [&] { return fl->done; });
    const KernelFn fn = fl->fn;
    wl.unlock();
    std::lock_guard slk(stats_mu_);
    ++stats_.coalesced;
    return fn;
  }
  const std::string source = generate();
  {
    std::lock_guard slk(stats_mu_);
    ++stats_.lowerings;
  }
  const KernelFn fn = source.empty() ? nullptr : compile(source);
  {
    std::unique_lock lk(mu_);
    map_.emplace(key, fn);
    inflight_.erase(key);
  }
  {
    std::lock_guard wl(fl->m);
    fl->fn = fn;
    fl->done = true;
  }
  fl->cv.notify_all();
  return fn;
}

JitStats NativeCache::stats() {
  std::lock_guard lk(stats_mu_);
  JitStats s = stats_;
  s.cache_hits = hits_.load(std::memory_order_relaxed);
  return s;
}

std::size_t NativeCache::handle_count() {
  std::lock_guard lk(handles_mu_);
  return handles_.size();
}

std::string NativeCache::scratch_dir() {
  return ensure_dir() ? dir_ : std::string();
}

bool NativeCache::ensure_probe() {
  if (compiler_path() == nullptr || disabled_by_env()) return false;
  std::lock_guard lk(probe_mu_);
  if (probe_state_ == 0) {
    std::string src = "extern \"C\" void ";
    src += kKernelSymbol;
    src +=
        "(const long long*, const long long* const*, void* const*,"
        " const long long*, const long long*, const long long* const*,"
        " const double*, const long long*, const unsigned char*) {}\n";
    probe_state_ = compile(src) != nullptr ? 1 : -1;
  }
  return probe_state_ == 1;
}

bool NativeCache::ensure_dir() {
  std::call_once(dir_once_, [this] {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = base != nullptr && *base != '\0' ? base : "/tmp";
    tmpl += "/f90d-native-XXXXXX";
    const char* d = ::mkdtemp(tmpl.data());
    if (d != nullptr) dir_ = d;
  });
  return !dir_.empty();
}

KernelFn NativeCache::compile(const std::string& source) {
  const char* cxx = compiler_path();
  if (cxx == nullptr || !ensure_dir()) {
    std::lock_guard slk(stats_mu_);
    ++stats_.failures;
    return nullptr;
  }
  char stem[64];
  std::snprintf(stem, sizeof(stem), "/k%d_%016llx",
                counter_.fetch_add(1, std::memory_order_relaxed),
                fnv1a(source));
  const std::string cpp = dir_ + stem + ".cpp";
  const std::string so = dir_ + stem + ".so";
  const std::string log = dir_ + stem + ".log";
  {
    std::ofstream out(cpp);
    out << source;
    if (!out) {
      std::lock_guard slk(stats_mu_);
      ++stats_.failures;
      return nullptr;
    }
  }
  // -ffp-contract=off: the host library was built without FMA contraction
  // of a*b+c; allowing it here would change roundings and break the
  // bit-identity contract with the tape interpreter.  -nostdlib with libm
  // and libc named after the source: a kernel needs no start files,
  // libstdc++ or libgcc, and libm stays a DT_NEEDED entry so its symbols
  // resolve at RTLD_NOW.
  const std::vector<std::string> argv = {
      cxx, "-O2", "-fPIC", "-shared", "-std=c++17", "-ffp-contract=off",
      "-nostdlib", "-o", so, cpp, "-lm", "-lc"};
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = run_logged(argv, log);
  const auto t1 = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (!ok) {
    std::lock_guard slk(stats_mu_);
    stats_.compile_ms += ms;
    ++stats_.failures;
    return nullptr;
  }
  ::unlink(cpp.c_str());
  ::unlink(log.c_str());
  // RTLD_LOCAL: every object exports the same kKernelSymbol; keeping each
  // object's symbols private makes the dlsym below unambiguous.  The
  // mapping outlives the file, so the .so is unlinked straight away.
  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  ::unlink(so.c_str());
  if (handle == nullptr) {
    std::lock_guard slk(stats_mu_);
    stats_.compile_ms += ms;
    ++stats_.compiles;
    ++stats_.failures;
    return nullptr;
  }
  void* sym = ::dlsym(handle, kKernelSymbol);
  {
    std::lock_guard hlk(handles_mu_);
    // Handles are intentionally never dlclose'd: cached KernelFn pointers
    // live for the process, like the cache itself.
    handles_.push_back(handle);
  }
  std::lock_guard slk(stats_mu_);
  stats_.compile_ms += ms;
  ++stats_.compiles;
  ++stats_.dlopens;
  if (sym == nullptr) {
    ++stats_.failures;
    return nullptr;
  }
  return reinterpret_cast<KernelFn>(sym);
}

}  // namespace f90d::native
