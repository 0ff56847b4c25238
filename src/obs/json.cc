#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace wo {

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::object;
    return j;
}

double
Json::numberValue() const
{
    switch (kind_) {
      case Kind::unsigned_number:
        return static_cast<double>(u64_);
      case Kind::signed_number:
        return static_cast<double>(i64_);
      case Kind::double_number:
        return dbl_;
      default:
        return 0.0;
    }
}

std::uint64_t
Json::uintValue() const
{
    switch (kind_) {
      case Kind::unsigned_number:
        return u64_;
      case Kind::signed_number:
        return i64_ < 0 ? 0 : static_cast<std::uint64_t>(i64_);
      case Kind::double_number:
        return dbl_ < 0 ? 0 : static_cast<std::uint64_t>(dbl_);
      default:
        return 0;
    }
}

void
Json::push(Json v)
{
    wo_assert(kind_ == Kind::array, "push on non-array json value");
    items_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    wo_assert(kind_ == Kind::object, "set on non-object json value");
    for (auto &m : members_) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

Json *
Json::find(const std::string &key)
{
    for (auto &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

void
jsonAppendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    out.append(buf, static_cast<std::size_t>(n));
}

void
jsonEscape(std::string &out, std::string_view text)
{
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(indent > 0 ? indent * (depth + 1) : 0, ' ');
    const std::string close_pad(indent > 0 ? indent * depth : 0, ' ');
    const char *nl = indent > 0 ? "\n" : "";
    switch (kind_) {
      case Kind::null:
        out += "null";
        return;
      case Kind::boolean:
        out += bool_ ? "true" : "false";
        return;
      case Kind::unsigned_number:
        out += strprintf("%llu", static_cast<unsigned long long>(u64_));
        return;
      case Kind::signed_number:
        out += strprintf("%lld", static_cast<long long>(i64_));
        return;
      case Kind::double_number:
        jsonAppendDouble(out, dbl_);
        return;
      case Kind::string:
        out += '"';
        jsonEscape(out, str_);
        out += '"';
        return;
      case Kind::array:
        if (items_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += pad;
            items_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < items_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += ']';
        return;
      case Kind::object:
        if (members_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < members_.size(); ++i) {
            out += pad;
            out += '"';
            jsonEscape(out, members_[i].first);
            out += indent > 0 ? "\": " : "\":";
            members_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < members_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += '}';
        return;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/**
 * Strict recursive-descent JSON parser over an in-memory buffer.  The
 * input is a string_view so callers scanning a large buffer (the
 * campaign journal replays millions of lines) can parse each line in
 * place without copying it out first.
 */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonParseResult run()
    {
        JsonParseResult r;
        skipWs();
        if (!parseValue(r.value)) {
            r.error = error_;
            r.offset = pos_;
            return r;
        }
        skipWs();
        if (pos_ != text_.size()) {
            r.error = "trailing characters after document";
            r.offset = pos_;
            return r;
        }
        r.ok = true;
        return r;
    }

  private:
    bool fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why;
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word, Json v, Json &out)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail(strprintf("expected '%s'", word));
        pos_ += n;
        out = std::move(v);
        return true;
    }

    bool parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("dangling escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return fail("truncated \\u escape");
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = text_[pos_++];
                      cp <<= 4;
                      if (h >= '0' && h <= '9')
                          cp |= h - '0';
                      else if (h >= 'a' && h <= 'f')
                          cp |= h - 'a' + 10;
                      else if (h >= 'A' && h <= 'F')
                          cp |= h - 'A' + 10;
                      else
                          return fail("bad \\u escape digit");
                  }
                  // UTF-8 encode the basic-multilingual-plane code point;
                  // surrogate pairs are not needed by anything we emit.
                  if (cp < 0x80) {
                      out += static_cast<char>(cp);
                  } else if (cp < 0x800) {
                      out += static_cast<char>(0xc0 | (cp >> 6));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (cp >> 12));
                      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  }
                  break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(Json &out)
    {
        const std::size_t start = pos_;
        bool negative = false;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            negative = true;
            ++pos_;
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == start + (negative ? 1 : 0))
            return fail("malformed number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        // Number literals are tiny (SSO): this copy exists only to get
        // a NUL terminator for strto*.
        const std::string lit(text_.substr(start, pos_ - start));
        if (integral && !negative) {
            out = Json(static_cast<std::uint64_t>(
                std::strtoull(lit.c_str(), nullptr, 10)));
        } else if (integral) {
            out = Json(static_cast<std::int64_t>(
                std::strtoll(lit.c_str(), nullptr, 10)));
        } else {
            out = Json(std::strtod(lit.c_str(), nullptr));
        }
        return true;
    }

    bool parseValue(Json &out)
    {
        if (++depth_ > max_depth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        bool ok = false;
        switch (text_[pos_]) {
          case 'n':
            ok = literal("null", Json(), out);
            break;
          case 't':
            ok = literal("true", Json(true), out);
            break;
          case 'f':
            ok = literal("false", Json(false), out);
            break;
          case '"': {
              std::string s;
              ok = parseString(s);
              if (ok)
                  out = Json(std::move(s));
              break;
          }
          case '[': {
              ++pos_;
              out = Json::array();
              skipWs();
              if (pos_ < text_.size() && text_[pos_] == ']') {
                  ++pos_;
                  ok = true;
                  break;
              }
              while (true) {
                  Json item;
                  if (!parseValue(item))
                      return false;
                  out.push(std::move(item));
                  skipWs();
                  if (pos_ < text_.size() && text_[pos_] == ',') {
                      ++pos_;
                      continue;
                  }
                  if (pos_ < text_.size() && text_[pos_] == ']') {
                      ++pos_;
                      ok = true;
                      break;
                  }
                  return fail("expected ',' or ']' in array");
              }
              break;
          }
          case '{': {
              ++pos_;
              out = Json::object();
              skipWs();
              if (pos_ < text_.size() && text_[pos_] == '}') {
                  ++pos_;
                  ok = true;
                  break;
              }
              while (true) {
                  skipWs();
                  std::string key;
                  if (!parseString(key))
                      return false;
                  skipWs();
                  if (pos_ >= text_.size() || text_[pos_] != ':')
                      return fail("expected ':' in object");
                  ++pos_;
                  Json val;
                  if (!parseValue(val))
                      return false;
                  out.set(key, std::move(val));
                  skipWs();
                  if (pos_ < text_.size() && text_[pos_] == ',') {
                      ++pos_;
                      continue;
                  }
                  if (pos_ < text_.size() && text_[pos_] == '}') {
                      ++pos_;
                      ok = true;
                      break;
                  }
                  return fail("expected ',' or '}' in object");
              }
              break;
          }
          default:
            ok = parseNumber(out);
            break;
        }
        --depth_;
        return ok;
    }

    static constexpr int max_depth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

/** jsonParse's grammar, recognized without building anything. */
class Validator
{
  public:
    explicit Validator(std::string_view text) : text_(text) {}

    bool run()
    {
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool more() const { return pos_ < text_.size(); }
    char peek() const { return text_[pos_]; }
    bool eat(char c)
    {
        if (!more() || peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void skipWs()
    {
        while (more() && (peek() == ' ' || peek() == '\t' ||
                          peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    void digits()
    {
        while (more() && std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
    }

    bool string()
    {
        if (!eat('"'))
            return false;
        while (more()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\')
                continue;
            if (!more())
                return false;
            const char e = text_[pos_++];
            if (e == 'u') {
                if (pos_ + 4 > text_.size())
                    return false;
                for (int i = 0; i < 4; ++i)
                    if (!std::isxdigit(
                            static_cast<unsigned char>(text_[pos_++])))
                        return false;
            } else if (std::string_view("\"\\/bfnrt").find(e) ==
                       std::string_view::npos) {
                return false;
            }
        }
        return false;
    }

    bool number()
    {
        eat('-');
        const std::size_t start = pos_;
        digits();
        if (pos_ == start)
            return false;
        if (eat('.'))
            digits();
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            digits();
        }
        return true;
    }

    bool literal(std::string_view word)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    /** Items of an array (@p object false) or members of an object,
     *  after the opening bracket. */
    bool items(bool object)
    {
        const char close = object ? '}' : ']';
        skipWs();
        if (eat(close))
            return true;
        for (;;) {
            if (object) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (!eat(':'))
                    return false;
            }
            if (!value())
                return false;
            skipWs();
            if (eat(close))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool value()
    {
        if (++depth_ > max_depth)
            return false;
        skipWs();
        if (!more())
            return false;
        bool ok;
        switch (peek()) {
          case 'n': ok = literal("null"); break;
          case 't': ok = literal("true"); break;
          case 'f': ok = literal("false"); break;
          case '"': ok = string(); break;
          case '[': ++pos_; ok = items(false); break;
          case '{': ++pos_; ok = items(true); break;
          default: ok = number(); break;
        }
        --depth_;
        return ok;
    }

    static constexpr int max_depth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

JsonParseResult
jsonParse(std::string_view text)
{
    return Parser(text).run();
}

bool
jsonValid(std::string_view text)
{
    return Validator(text).run();
}

} // namespace wo
