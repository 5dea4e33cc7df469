#include "perf.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/admin.h"
#include "service/log.h"

extern char** environ;

namespace perf {

namespace fs = std::filesystem;

std::uint64_t Rng::next() {
  // splitmix64
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_u64(std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof buf);
  add(std::string_view(buf, sizeof buf));
}

std::uint64_t digest_of(std::string_view bytes) {
  Digest d;
  d.add(bytes);
  return d.value();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void make_dirs(const std::string& path) { fs::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const auto& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

double timeval_ms(const timeval& tv) {
  return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
}

}  // namespace

ChildResult run_child(const std::vector<std::string>& argv) {
  ChildResult result;
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  auto args = c_argv(argv);
  const auto t0 = Clock::now();
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  if (rc != 0) {
    close(pipe_fds[0]);
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(pipe_fds[0], buf, sizeof buf);
    if (n > 0) {
      result.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(pipe_fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_ms = ms_between(t0, Clock::now());
  result.cpu_ms = timeval_ms(usage.ru_utime) + timeval_ms(usage.ru_stime);
  result.max_rss_kib = usage.ru_maxrss;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

Daemon::Daemon(const std::string& pncd, const std::string& socket,
               const std::string& cache_dir, const std::string& log_file)
    : socket_(socket) {
  const std::vector<std::string> argv = {pncd, "--socket=" + socket,
                                         "--cache-dir=" + cache_dir,
                                         "--log-level=warn"};
  auto args = c_argv(argv);
  const pid_t parent = getpid();
  const auto t0 = Clock::now();
  pid_ = fork();
  if (pid_ < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int out = open("/dev/null", O_WRONLY);
    const int err = open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (out < 0 || err < 0) _exit(127);
    dup2(out, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  // Poll until the daemon answers a PING; give up after 20 s.
  pnlab::service::Request ping;
  ping.kind = pnlab::service::RequestKind::kPing;
  while (ms_between(t0, Clock::now()) < 20000) {
    if (auto client = pnlab::service::Client::connect(socket_, nullptr, 200)) {
      pnlab::service::Response rsp;
      if (client->call(ping, &rsp) && rsp.ok) {
        ready_ms_ = ms_between(t0, Clock::now());
        return;
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("pncd exited during start-up; see " + log_file);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop();
  throw std::runtime_error("pncd did not answer PING within 20 s");
}

Daemon::~Daemon() { stop(); }

std::unique_ptr<pnlab::service::Client> Daemon::connect() const {
  std::string error;
  auto client = pnlab::service::Client::connect(socket_, &error, 2000);
  if (!client) throw std::runtime_error("cannot connect to pncd: " + error);
  return client;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  const auto t0 = Clock::now();
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (ms_between(t0, Clock::now()) > 20000) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

long Daemon::peak_rss_kib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

Daemon::ProcCounters Daemon::counters() const {
  ProcCounters c;
  const std::string proc = "/proc/" + std::to_string(pid_);
  {
    // Fields 14 and 15 (utime, stime) follow the parenthesised comm.
    const std::string stat = read_file(proc + "/stat");
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
    c.cpu_ms = ticks * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::ifstream io(proc + "/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") c.wchar = value;
    if (key == "syscw:") c.syscw = value;
  }
  return c;
}

bool Daemon::scrape(double* sheds, double* deadline_rejects) const {
  std::string body;
  bool ok = false;
  if (!pnlab::service::admin_call(pnlab::service::admin_socket_path(socket_),
                                  pnlab::service::kAdminMetrics, &body, &ok,
                                  nullptr) ||
      !ok) {
    return false;
  }
  bool found_sheds = false;
  bool found_rejects = false;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("pnc_requests_shed_total ", 0) == 0) {
      *sheds = std::stod(line.substr(line.find(' ') + 1));
      found_sheds = true;
    } else if (line.rfind("pnc_deadline_rejects_total ", 0) == 0) {
      *deadline_rejects = std::stod(line.substr(line.find(' ') + 1));
      found_rejects = true;
    }
  }
  return found_sheds && found_rejects;
}

std::string json_escape(std::string_view s) {
  std::string out = "\"";
  pnlab::service::log::append_json_escaped(&out, s);
  return out + '"';
}

namespace {

std::string num_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void JsonOut::num(const std::string& key, double v) {
  fields_.emplace_back(key, num_text(v));
}

void JsonOut::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, json_escape(v));
}

void JsonOut::nums(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += num_text(v[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void JsonOut::strs(const std::string& key, const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += json_escape(v[i]);
  }
  fields_.emplace_back(key, s + "]");
}

void JsonOut::obj(const std::string& key, const JsonOut& v) {
  fields_.emplace_back(key, v.text());
}

std::string JsonOut::text() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i) s += ",";
    s += json_escape(fields_[i].first) + ":" + fields_[i].second;
  }
  return s + "}";
}

}  // namespace perf
