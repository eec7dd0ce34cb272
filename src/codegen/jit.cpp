#include "codegen/jit.h"

#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "codegen/cpp_emitter.h"
#include "support/strings.h"

extern char **environ;

namespace anvil {
namespace codegen {

namespace {

bool
runs(const std::string &cmd)
{
    std::string probe = cmd + " --version > /dev/null 2>&1";
    return std::system(probe.c_str()) == 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Single-quote `s` for /bin/sh, so paths with spaces or shell
 *  metacharacters reach the compiler as one word. */
std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (char ch : s) {
        if (ch == '\'')
            q += "'\\''";
        else
            q += ch;
    }
    return q + "'";
}

/** Remove the work dir and whatever the compile left in it (units,
 *  objects, error logs, the shared object).  The dir is flat: the JIT
 *  never creates subdirectories. */
void
removeTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                ::unlink((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

/** Start `cmd` under /bin/sh with stderr redirected to `err_path`;
 *  -1 if the shell could not be spawned.  The shell keeps $ANVIL_CXX
 *  verbatim (it may carry its own arguments). */
pid_t
spawnShell(const std::string &cmd, const std::string &err_path)
{
    posix_spawn_file_actions_t fa;
    if (posix_spawn_file_actions_init(&fa) != 0)
        return -1;
    const char *argv[] = {"sh", "-c", cmd.c_str(), nullptr};
    pid_t pid = -1;
    int rc = posix_spawn_file_actions_addopen(
        &fa, 2, err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (rc == 0)
        rc = ::posix_spawn(&pid, "/bin/sh", &fa, nullptr,
                           const_cast<char *const *>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    return rc == 0 ? pid : -1;
}

/** Reap `pid`; returns its raw wait status (-1 if waitpid failed). */
int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return status;
}

std::string
describeStatus(int status)
{
    if (status == -1)
        return "could not be waited for";
    if (WIFEXITED(status))
        return strfmt("exited with status %d", WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return strfmt("was killed by signal %d", WTERMSIG(status));
    return strfmt("ended with wait status %d", status);
}

/** A compiler diagnostic, trimmed to one readable block. */
std::string
diagnostic(const std::string &err_path)
{
    std::string diag = readFile(err_path);
    if (diag.size() > 2000)
        diag.resize(2000);
    while (!diag.empty() && (diag.back() == '\n' || diag.back() == '\r'))
        diag.pop_back();
    return diag;
}

/** Cache key: design hash + everything that changes the built object
 *  for the same design — the compiler opt level and the emitter's
 *  codegen revision. */
struct CacheKey
{
    uint64_t hash;
    int opt_level;
    int emitter_tag;

    bool operator<(const CacheKey &o) const
    {
        if (hash != o.hash)
            return hash < o.hash;
        if (opt_level != o.opt_level)
            return opt_level < o.opt_level;
        return emitter_tag < o.emitter_tag;
    }
};

std::mutex g_cache_mu;
std::map<CacheKey, std::shared_ptr<CompiledKernel>> g_cache;

} // namespace

CompiledKernel::~CompiledKernel()
{
    if (_dl)
        ::dlclose(_dl);
}

int
jitUnitCount(size_t kernel_bytes)
{
    size_t k = (kernel_bytes + kJitUnitBytes - 1) / kJitUnitBytes;
    return static_cast<int>(std::clamp<size_t>(k, 1, kJitMaxUnits));
}

std::string
jitCompilerPath()
{
    if (const char *env = ::getenv("ANVIL_CXX"))
        return env;   // verbatim, even if broken: the fallback hook
    for (const char *c : {"c++", "g++", "clang++"})
        if (runs(c))
            return c;
    return "";
}

JitResult
jitCompileKernel(const rtl::Netlist &nl, const JitOptions &opts)
{
    JitResult res;
    uint64_t t0 = rtl::monotonicNanos();
    uint64_t hash = rtl::designHash(nl);
    CacheKey key{hash, opts.opt_level, opts.emitter_tag};
    {
        std::lock_guard<std::mutex> lock(g_cache_mu);
        auto it = g_cache.find(key);
        if (it != g_cache.end()) {
            res.kernel = it->second;
            res.cache_hit = true;
            return res;
        }
    }

    std::string cxx = jitCompilerPath();
    if (cxx.empty()) {
        res.error = "no C++ compiler found (tried c++, g++, clang++; "
                    "set ANVIL_CXX to override)";
        return res;
    }

    // Scratch lands under $TMPDIR when set (sandboxes and CI point it
    // at a private writable dir), falling back to /tmp.
    const char *tmp_env = ::getenv("TMPDIR");
    std::string tmp_base =
        tmp_env && *tmp_env ? tmp_env : "/tmp";
    while (tmp_base.size() > 1 && tmp_base.back() == '/')
        tmp_base.pop_back();
    std::string tmpl_s = tmp_base + "/anvil-jit-XXXXXX";
    std::vector<char> tmpl(tmpl_s.begin(), tmpl_s.end());
    tmpl.push_back('\0');
    if (!::mkdtemp(tmpl.data())) {
        res.error = "mkdtemp failed in " + tmp_base;
        return res;
    }
    std::string dir = tmpl.data();
    auto fail = [&](std::string why) {
        res.error = std::move(why);
        if (!opts.keep_files)
            removeTree(dir);
        return res;
    };

    // The whole kernel's size picks both the unit count and the
    // optimisation level, so neither depends on how it is split.
    std::vector<std::string> units = emitCppKernelUnits(nl, "jit", 1);
    size_t kernel_bytes = units[0].size();
    int k = jitUnitCount(kernel_bytes);
    if (k > 1)
        units = emitCppKernelUnits(nl, "jit", k);

    // Very large kernels (multi-MB crossbars) gain nothing measurable
    // from -O2's inliner here but pay minutes of compile wall-time for
    // it; cap them at -O1.  The cache key keeps the *requested* level,
    // so the policy is transparent to callers.
    int opt = opts.opt_level;
    if (opt > 1 && kernel_bytes > 2u << 20)
        opt = 1;

    // Start every unit's compile before waiting on any of them; the
    // units are independent until the link.
    std::vector<pid_t> pids;
    std::string spawn_error;
    for (int u = 0; u < k; u++) {
        std::string stem = dir + "/unit" + std::to_string(u);
        res.source_bytes += units[static_cast<size_t>(u)].size();
        std::ofstream out(stem + ".cpp");
        out << units[static_cast<size_t>(u)];
        out.close();
        if (!out) {
            spawn_error = "failed to write " + stem + ".cpp";
            break;
        }
        std::string cmd = strfmt(
            "%s -std=c++17 -O%d -fPIC -fno-exceptions -fno-rtti -g0 "
            "-c -o %s %s",
            cxx.c_str(), opt, shellQuote(stem + ".o").c_str(),
            shellQuote(stem + ".cpp").c_str());
        pid_t pid = spawnShell(cmd, stem + ".err");
        if (pid < 0) {
            spawn_error =
                strfmt("could not start the compiler for unit %d", u);
            break;
        }
        pids.push_back(pid);
    }
    // Reap every child before reporting anything, so a failure never
    // orphans the others; the first failing unit names the error.
    std::string compile_error;
    for (size_t u = 0; u < pids.size(); u++) {
        int status = reap(pids[u]);
        if (status == 0 || !compile_error.empty())
            continue;
        std::string err = dir + "/unit" + std::to_string(u) + ".err";
        compile_error = strfmt("kernel compile failed (%s): unit %zu of "
                               "%d %s: ",
                               cxx.c_str(), u, k,
                               describeStatus(status).c_str()) +
                        diagnostic(err);
    }
    if (!spawn_error.empty())
        return fail(spawn_error);
    if (!compile_error.empty())
        return fail(compile_error);

    std::string so = dir + "/kernel.so";
    std::string link =
        strfmt("%s -shared -o %s", cxx.c_str(), shellQuote(so).c_str());
    for (int u = 0; u < k; u++)
        link += " " + shellQuote(dir + "/unit" + std::to_string(u) + ".o");
    pid_t link_pid = spawnShell(link, dir + "/link.err");
    if (link_pid < 0)
        return fail("could not start the kernel link");
    int link_status = reap(link_pid);
    if (link_status != 0)
        return fail(strfmt("kernel link failed (%s): %s: ", cxx.c_str(),
                           describeStatus(link_status).c_str()) +
                    diagnostic(dir + "/link.err"));

    void *dl = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!dl) {
        const char *why = ::dlerror();
        return fail(std::string("dlopen failed: ") +
                    (why ? why : "unknown"));
    }
    // The mapping survives the unlink; clean up eagerly so nothing
    // litters /tmp even if the process dies later.
    if (!opts.keep_files)
        removeTree(dir);

    auto entry = reinterpret_cast<AnvilKernelEntryFn>(
        ::dlsym(dl, ANVIL_KERNEL_ENTRY_SYMBOL));
    if (!entry) {
        res.error = "kernel entry symbol missing";
        ::dlclose(dl);
        return res;
    }
    const AnvilKernelV2 *abi = entry();
    if (!abi || abi->abi_version != ANVIL_KERNEL_ABI_VERSION) {
        res.error = "kernel ABI version mismatch";
        ::dlclose(dl);
        return res;
    }
    if (abi->design_hash != hash ||
        abi->net_count != nl.nets().size()) {
        res.error = "kernel design hash mismatch";
        ::dlclose(dl);
        return res;
    }

    res.kernel = std::make_shared<CompiledKernel>(dl, abi);
    res.compile_ns = rtl::monotonicNanos() - t0;
    std::lock_guard<std::mutex> lock(g_cache_mu);
    g_cache.emplace(key, res.kernel);
    return res;
}

rtl::KernelRef
kernelRef(const std::shared_ptr<CompiledKernel> &k)
{
    rtl::KernelRef ref;
    if (k) {
        ref.abi = k->abi();
        ref.hold = k;
    }
    return ref;
}

} // namespace codegen
} // namespace anvil
