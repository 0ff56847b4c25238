#include "executor.hh"

#include <chrono>

#include "campaign/verify.hh"
#include "obs/artifact.hh"
#include "obs/timeline.hh"

namespace wo {

void
CellExecutor::configure(const CampaignSpec &spec)
{
    max_events_ = spec.max_events;
    // With shrinking off the single permitted run just confirms the
    // reproduction and renders the unreduced .wo text.
    shrink_runs_ = spec.shrink ? spec.shrink_max_runs : 1;
}

ExecutedCell
CellExecutor::execute(const Cell &cell, std::string key)
{
    ExecutedCell x{runCell(cell, std::move(key), max_events_,
                           EventQueueKind::calendar, &cache_),
                   std::nullopt};
    CellResult &r = x.run.result;
    ViolationKind kind;
    if (!r.hardwareFailure() || !x.run.program ||
        !violationKindFromName(r.primary_kind, kind))
        return x; // nothing to shrink: the verdict is the evidence

    Timeline::Scope span(Timeline::current(), SpanKind::shrink);
    const auto s0 = std::chrono::steady_clock::now();
    ShrinkCfg scfg;
    scfg.max_runs = shrink_runs_;
    if (cell.kind == CellKind::verify) {
        const VerifyCfg vcfg = cell.verifyCfg();
        x.shrunk = shrinkCounterexample(
            *x.run.program, x.run.warm,
            [&](const Program &p, const std::vector<WarmTerm> &) {
                return verifyReproduces(p, cell.model, kind, vcfg);
            },
            scfg);
    } else {
        x.shrunk = shrinkCounterexample(*x.run.program, x.run.warm,
                                        cell.systemCfg(max_events_), kind,
                                        scfg, &cache_);
    }
    r.shrink_us = static_cast<std::uint64_t>(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - s0)
            .count());
    return x;
}

void
CellExecutor::writeEvidence(const Cell &cell, const ShrinkOutcome &shrunk,
                            const std::string &stem) const
{
    if (cell.kind == CellKind::verify) {
        // Re-judge the minimum: an engine disagreement's evidence is
        // the outcome-set diff (a flight-recorder replay would only
        // show one timed run, which is not what disagreed).
        const VerifyResult ev = verifyProgramOnModel(
            *shrunk.program, cell.model, cell.verifyCfg());
        writeFile(stem + ".verify.txt", ev.detail());
        return;
    }
    // Re-run the minimum with the flight recorder on and the failure
    // dump pointed into the out dir.
    SystemCfg ev = cell.systemCfg(max_events_);
    ev.flight_recorder = true;
    ev.dump_on_fail = stem;
    System sys(*shrunk.program, ev);
    for (const auto &wt : shrunk.warm)
        sys.warmShared(wt.addr, wt.procs);
    sys.run();
}

} // namespace wo
