#include "client.hh"

#include <cstdio>
#include <memory>

#include "common/logging.hh"

namespace wo {

SubmitResult
submitCampaign(const SubmitCfg &cfg)
{
    SubmitResult out;
    const int fd = fleetConnect(cfg.connect, &out.error);
    if (fd < 0)
        return out;
    LineConn conn(fd);

    Json hello = fleetMsg("hello");
    hello.set("role", Json("client"));
    hello.set("name", Json("submit"));
    if (!fleetHello(conn, std::move(hello), nullptr, &out.error))
        return out;

    Json submit = fleetMsg("submit");
    submit.set("spec", campaignSpecJson(cfg.spec));
    if (!conn.writeLine(submit)) {
        out.error = "submit write failed";
        return out;
    }

    // accepted -> (progress)* -> done, all pushed by the coordinator.
    std::string line;
    const int wait_ms =
        cfg.idle_timeout_ms > 0 ? cfg.idle_timeout_ms : 2'000;
    for (;;) {
        const LineConn::Read r = conn.readLine(line, wait_ms);
        if (r == LineConn::Read::closed) {
            out.error = "fleet connection closed before the verdict";
            return out;
        }
        if (r == LineConn::Read::timeout) {
            if (cfg.idle_timeout_ms > 0) {
                out.error = strprintf(
                    "fleet silent for %d ms; giving up",
                    cfg.idle_timeout_ms);
                return out;
            }
            continue;
        }
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const std::string type = fleetMsgType(p.value);
        if (type == "accepted") {
            out.campaign = fleetUint(p.value, "campaign");
            if (!cfg.quiet)
                inform("fleet: campaign %llu accepted",
                       static_cast<unsigned long long>(out.campaign));
        } else if (type == "progress") {
            if (cfg.quiet)
                continue;
            const Json *cells = p.value.find("cells");
            if (!cells || !cells->isObject())
                continue;
            std::fprintf(stderr, "\rfleet: %llu/%llu cells, %llu hw   ",
                         static_cast<unsigned long long>(
                             fleetUint(*cells, "done")),
                         static_cast<unsigned long long>(
                             fleetUint(*cells, "cells")),
                         static_cast<unsigned long long>(
                             fleetUint(*cells, "hw")));
            std::fflush(stderr);
        } else if (type == "done") {
            if (!cfg.quiet)
                std::fprintf(stderr, "\n");
            const Json *hc = p.value.find("hardware_clean");
            out.hardware_clean = hc && hc->isBool() && hc->boolValue();
            if (const Json *s = p.value.find("summary"))
                out.summary = *s;
            out.ok = true;
            return out;
        } else if (type == "error") {
            out.error = fleetString(p.value, "text");
            if (out.error.empty())
                out.error = "coordinator error";
            return out;
        }
    }
}

} // namespace wo
