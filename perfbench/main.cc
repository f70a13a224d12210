/**
 * @file
 * perfbench: host wall-clock benchmark of dphls.
 *
 *   perfbench --workload align_batch|serve_open --seed N
 *             --seconds S --trace 0|1 --work-dir DIR [--serve-bin PATH]
 *
 * Runs one workload in this process, checks its outputs, and prints
 * "# record" (run facts), "# self" (traced self time per span name)
 * and, last, one JSON object with every metric the workload measured.
 * With --trace 1 it also writes DIR/trace-<workload>.json (Chrome
 * trace-event format). perfbench/run.py builds this and selects the
 * metric set BENCHMARK.json names.
 *
 * align_batch's traced run gives its last kLongReadShare of the time to
 * the long-read phase (runLongReads), the home of the `workloads` layer.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <sys/stat.h>

#include "common.hh"

using namespace perfbench;

namespace {

constexpr double kLongReadShare = 1.0 / 3;

/** Add the long-read phase's outcome to align_batch's report. */
void
mergeLongReads(Report &rep, const Report &lr)
{
    rep.correct = rep.correct && lr.correct;
    rep.attempted += lr.attempted;
    rep.failed += lr.failed;
    for (const auto &[name, m] : lr.metrics) {
        if (rep.metrics.count(name))
            throw std::logic_error("long-read metric " + name +
                                   " is also an align_batch metric");
        rep.metrics[name] = m;
    }
    for (const auto &[k, v] : lr.record)
        rep.record["long_reads." + k] = v;
    rep.set("failed_share",
            rep.attempted ? static_cast<double>(rep.failed) / rep.attempted
                          : 0,
            "ratio");
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload align_batch|serve_open "
                 "--seed N --seconds S --trace 0|1\n"
                 "                 --work-dir DIR [--serve-bin PATH]\n");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            opt.trace = v == "1";
        else if (a == "--work-dir")
            opt.workDir = v;
        else if (a == "--serve-bin")
            opt.serveBinary = v;
        else {
            usage();
            return 2;
        }
    }
    if (opt.workDir.empty() || opt.seconds <= 0) {
        usage();
        return 2;
    }
    mkdir(opt.workDir.c_str(), 0755);

    Tracer tracer(opt.trace);
    Report rep;
    try {
        if (opt.workload == "align_batch" && opt.trace) {
            Options aopt = opt;
            aopt.seconds = opt.seconds * (1 - kLongReadShare);
            runAlignBatch(aopt, tracer, rep);
            Report lr;
            runLongReads(opt.seed, opt.seconds * kLongReadShare, tracer, lr);
            mergeLongReads(rep, lr);
        } else if (opt.workload == "align_batch") {
            runAlignBatch(opt, tracer, rep);
        } else if (opt.workload == "serve_open") {
            runServeOpen(opt, tracer, rep);
        } else {
            usage();
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }

    rep.note("workload", opt.workload);
    rep.note("seed", static_cast<double>(opt.seed));
    rep.note("seconds", opt.seconds);
    rep.note("nproc", onlineCpus());
    rep.note("build_type", PERFBENCH_BUILD_TYPE);
    rep.note("traced", opt.trace ? "yes" : "no");

    if (opt.trace) {
        const std::string path =
            opt.workDir + "/trace-" + opt.workload + ".json";
        if (!tracer.writeChrome(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        rep.note("trace_file", path);
        rep.note("trace_spans", static_cast<double>(tracer.size()));
        std::printf("# self");
        for (const auto &[name, s] : tracer.selfSeconds())
            std::printf(" %s=%.6fs", name.c_str(), s);
        std::printf("\n");
    }

    std::printf("# record {");
    bool first = true;
    for (const auto &[k, v] : rep.record) {
        std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                    jsonEscape(v).c_str());
        first = false;
    }
    std::printf("}\n");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    first = true;
    for (const auto &[name, m] : rep.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    return rep.correct ? 0 : 3;
}
