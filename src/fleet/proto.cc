#include "proto.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <type_traits>

#include "campaign/cell.hh"
#include "campaign/journal.hh"
#include "common/logging.hh"
#include "models/model_registry.hh"

namespace wo {

bool
parseHostPort(const std::string &text, HostPort &out)
{
    const std::size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= text.size())
        return false;
    const std::string host = text.substr(0, colon);
    unsigned long port = 0;
    for (std::size_t i = colon + 1; i < text.size(); ++i) {
        const char c = text[i];
        if (c < '0' || c > '9')
            return false;
        port = port * 10 + static_cast<unsigned long>(c - '0');
        if (port > 65535)
            return false;
    }
    if (port == 0)
        return false;
    out.host = host;
    out.port = static_cast<std::uint16_t>(port);
    return true;
}

bool
fleetSpecFromJson(const Json &j, FleetCampaignSpec &out,
                  std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    if (!j.isObject())
        return fail("spec is not an object");
    FleetCampaignSpec spec;
    const auto num = [&](const char *key, auto &field) {
        if (const Json *v = j.find(key); v && v->isNumber())
            field = static_cast<std::remove_reference_t<decltype(field)>>(
                v->uintValue());
    };
    const auto flag = [&](const char *key, bool &field) {
        if (const Json *v = j.find(key); v && v->isBool())
            field = v->boolValue();
    };
    num("seed", spec.seed);
    num("cells", spec.cells);
    if (spec.cells == 0)
        return fail("spec.cells must be positive");
    // The base stream crosses every cell with a policy, so an absent or
    // empty list keeps the default campaign trio.
    std::vector<OrderingPolicy> pols;
    for (const std::string &name :
         splitCommas(fleetString(j, "policies"))) {
        OrderingPolicy p;
        if (!parsePolicyName(name, p))
            return fail("unknown policy '" + name + "'");
        pols.push_back(p);
    }
    if (!pols.empty())
        spec.policies = std::move(pols);
    if (const Json *v = j.find("programs"); v && v->isArray())
        for (const Json &f : v->items())
            if (f.isString())
                spec.program_files.push_back(f.stringValue());
    num("max_events", spec.max_events);
    if (spec.max_events == 0)
        return fail("spec.max_events must be positive");
    flag("shrink", spec.shrink);
    num("shrink_max_runs", spec.shrink_max_runs);
    flag("inject_reserve_bug", spec.inject_reserve_bug);
    flag("verify", spec.verify);
    const auto &known = modelNames();
    for (const std::string &name :
         splitCommas(fleetString(j, "verify_models"))) {
        if (std::find(known.begin(), known.end(), name) == known.end())
            return fail("unknown model '" + name + "'");
        spec.verify_models.push_back(name);
    }
    num("max_states", spec.max_states);
    if (spec.max_states == 0)
        return fail("spec.max_states must be positive");
    num("explore_jobs", spec.explore_jobs);
    if (spec.explore_jobs < 1)
        return fail("spec.explore_jobs must be positive");
    flag("inject_axiom_bug", spec.inject_axiom_bug);
    out = std::move(spec);
    return true;
}

Json
fleetMsg(const char *type)
{
    Json j = Json::object();
    j.set("type", Json(type));
    return j;
}

std::string
fleetMsgType(const Json &j)
{
    return fleetString(j, "type");
}

std::uint64_t
fleetUint(const Json &msg, const char *key)
{
    const Json *v = msg.find(key);
    return v && v->isNumber() ? v->uintValue() : 0;
}

std::string
fleetString(const Json &msg, const char *key)
{
    const Json *v = msg.find(key);
    return v && v->isString() ? v->stringValue() : "";
}

bool
fleetHello(LineConn &conn, Json hello, Json *reply, std::string *error)
{
    hello.set("proto", Json(fleet_proto_version));
    if (!conn.writeLine(hello)) {
        *error = "handshake write failed";
        return false;
    }
    std::string line;
    if (conn.readLine(line, 10'000) != LineConn::Read::line) {
        *error = "no handshake reply";
        return false;
    }
    JsonParseResult p = jsonParse(line);
    if (!p.ok || fleetMsgType(p.value) != "hello_ok") {
        *error = p.ok ? fleetString(p.value, "text") : "";
        if (error->empty())
            *error = "handshake rejected";
        return false;
    }
    if (reply)
        *reply = std::move(p.value);
    return true;
}

// --- results frames --------------------------------------------------

void
ResultsFrame::add(std::uint64_t idx, const CellResult &r,
                  const ShrinkOutcome *shrunk)
{
    if (cells_++ > 0)
        tuples_ += ',';
    tuples_ += '[';
    appendDecimal(tuples_, idx);
    tuples_ += ",\"";
    jsonEscape(tuples_, r.verdict());
    tuples_ += "\",";
    jsonAppendDouble(tuples_, r.wall_ms);
    // byKindJson(r.by_kind), spelled without the tree.
    tuples_ += ",{";
    const char *sep = "";
    for (int k = 0; k < num_violation_kinds; ++k) {
        if (r.by_kind[k] == 0)
            continue;
        tuples_ += sep;
        tuples_ += '"';
        jsonEscape(tuples_, violationKindName(static_cast<ViolationKind>(k)));
        tuples_ += "\":";
        appendDecimal(tuples_, r.by_kind[k]);
        sep = ",";
    }
    tuples_ += '}';
    if (shrunk) {
        Json failure = Json::object();
        failure.set("cell", Json(r.key));
        failure.set("kind", Json(r.primary_kind));
        failure.set("wo_text", Json(shrunk->wo_text));
        failure.set("insns",
                    Json(static_cast<std::uint64_t>(shrunk->instructions)));
        failure.set("orig_insns", Json(static_cast<std::uint64_t>(
                                      shrunk->orig_instructions)));
        failure.set("reproduced", Json(shrunk->reproduced));
        tuples_ += ',';
        tuples_ += failure.dump();
    }
    tuples_ += ']';
    appendJournalCellLine(lines_, r);
}

std::string_view
ResultsFrame::text(std::uint64_t campaign, std::uint64_t lease)
{
    text_.assign("{\"type\":\"results\",\"campaign\":");
    appendDecimal(text_, campaign);
    text_ += ",\"lease\":";
    appendDecimal(text_, lease);
    text_ += ",\"cells\":[";
    text_ += tuples_;
    text_ += "]}\n";
    text_ += lines_;
    return text_;
}

void
ResultsFrame::clear()
{
    tuples_.clear();
    lines_.clear();
    cells_ = 0;
}

bool
decodeResultsHeader(const Json &header, Frame &out, std::string &why)
{
    out.cells.clear();
    const Json *cells = header.find("cells");
    if (!cells || !cells->isArray()) {
        why = "no cells array";
        return false;
    }
    out.campaign = fleetUint(header, "campaign");
    out.lease = fleetUint(header, "lease");
    out.cells.resize(cells->items().size());
    for (std::size_t i = 0; i < out.cells.size(); ++i) {
        const std::vector<Json> &t = cells->items()[i].items();
        if (t.size() < 4 || t.size() > 5 ||
            t[0].kind() != Json::Kind::unsigned_number ||
            !t[1].isString() || !(t[2].isNumber() || t[2].isNull()) ||
            !t[3].isObject() || (t.size() == 5 && !t[4].isObject())) {
            why = strprintf("malformed cell tuple %zu", i);
            return false;
        }
        FrameCell &c = out.cells[i];
        c.idx = t[0].uintValue();
        c.verdict = t[1].stringValue();
        c.ms = t[2].numberValue();
        addByKindJson(t[3], c.by_kind);
        if (t.size() == 5)
            c.failure = t[4];
    }
    return true;
}

bool
isJournalCellLine(std::string_view line)
{
    constexpr std::string_view tail = ",\"type\":\"cell\"}";
    return line.size() >= cell_line_head.size() + tail.size() &&
           line.substr(0, cell_line_head.size()) == cell_line_head &&
           line.substr(line.size() - tail.size()) == tail &&
           jsonValid(line);
}

// --- transport -------------------------------------------------------

int
fleetListen(const std::string &addr, std::uint16_t port,
            std::uint16_t *bound_port, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = strprintf("socket: %s", std::strerror(errno));
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
        if (error)
            *error = strprintf("bad address '%s'", addr.c_str());
        ::close(fd);
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) != 0 ||
        ::listen(fd, 32) != 0) {
        if (error)
            *error = strprintf("%s:%u: %s", addr.c_str(),
                               static_cast<unsigned>(port),
                               std::strerror(errno));
        ::close(fd);
        return -1;
    }
    socklen_t len = sizeof sa;
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&sa), &len);
    if (bound_port)
        *bound_port = ntohs(sa.sin_port);
    return fd;
}

int
fleetConnect(const HostPort &hp, std::string *error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = strprintf("socket: %s", std::strerror(errno));
        return -1;
    }
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(hp.port);
    if (::inet_pton(AF_INET, hp.host.c_str(), &sa.sin_addr) != 1) {
        if (error)
            *error = strprintf("bad address '%s' (dotted IPv4 only)",
                               hp.host.c_str());
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) !=
        0) {
        if (error)
            *error = strprintf("%s:%u: %s", hp.host.c_str(),
                               static_cast<unsigned>(hp.port),
                               std::strerror(errno));
        ::close(fd);
        return -1;
    }
    // Leases, heartbeats and results frames are each one write;
    // latency beats batching.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

LineConn::Read
LineConn::readLine(std::string &out, int timeout_ms)
{
    for (;;) {
        const std::size_t eol = buf_.find('\n', rpos_);
        if (eol != std::string::npos) {
            out.assign(buf_, rpos_, eol - rpos_);
            rpos_ = eol + 1;
            return Read::line;
        }
        // Only a partial line is left: drop the consumed prefix once,
        // not per line.
        buf_.erase(0, rpos_);
        rpos_ = 0;
        if (fd_ < 0)
            return Read::closed;
        pollfd pfd = {fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr == 0)
            return Read::timeout;
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return Read::closed;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return Read::closed; // EOF or error: the peer is gone
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
LineConn::writeLine(const Json &msg)
{
    std::string text = msg.dump();
    text += '\n';
    return writeText(text);
}

bool
LineConn::writeText(std::string_view text)
{
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ < 0)
        return false;
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::send(fd_, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
LineConn::shutdownNow()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
LineConn::closeNow()
{
    // The write mutex keeps a concurrent writeLine from racing the fd
    // teardown; readLine is owner-thread-only by contract (the owner
    // does not close while its own read is in flight).
    std::lock_guard<std::mutex> lock(write_mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace wo
