/**
 * @file
 * A minimal JSON document model with a writer and a strict parser.
 *
 * The observability layer emits three machine-readable formats (Chrome
 * trace-event JSON, a JSONL event stream, and the hierarchical stats
 * dump) and the test suite must validate them without external
 * dependencies, so both directions live here.  Object keys preserve
 * insertion order, which keeps every dump deterministic and diffable.
 *
 * Numbers are stored as one of three variants (unsigned, signed, double)
 * so tick counts survive a round trip exactly; the parser selects the
 * narrowest variant that represents the literal.
 */

#ifndef WO_OBS_JSON_HH
#define WO_OBS_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wo {

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Kind : std::uint8_t
    {
        null,
        boolean,
        unsigned_number,
        signed_number,
        double_number,
        string,
        array,
        object
    };

    Json() : kind_(Kind::null) {}
    Json(bool b) : kind_(Kind::boolean), bool_(b) {}
    Json(std::uint64_t v) : kind_(Kind::unsigned_number), u64_(v) {}
    Json(std::int64_t v) : kind_(Kind::signed_number), i64_(v) {}
    Json(int v) : kind_(Kind::signed_number), i64_(v) {}
    Json(unsigned v) : kind_(Kind::unsigned_number), u64_(v) {}
    Json(double v) : kind_(Kind::double_number), dbl_(v) {}
    Json(std::string s) : kind_(Kind::string), str_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::string), str_(s) {}

    /** An empty array. */
    static Json array();

    /** An empty object. */
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    bool isBool() const { return kind_ == Kind::boolean; }
    bool isString() const { return kind_ == Kind::string; }
    bool isArray() const { return kind_ == Kind::array; }
    bool isObject() const { return kind_ == Kind::object; }

    /** Any of the three numeric variants. */
    bool isNumber() const
    {
        return kind_ == Kind::unsigned_number ||
               kind_ == Kind::signed_number || kind_ == Kind::double_number;
    }

    bool boolValue() const { return bool_; }
    const std::string &stringValue() const { return str_; }

    /** Numeric value as a double (0 for non-numbers). */
    double numberValue() const;

    /** Numeric value truncated to uint64 (0 for non-numbers). */
    std::uint64_t uintValue() const;

    /** Array elements (empty for non-arrays). */
    const std::vector<Json> &items() const { return items_; }

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    /** Append @p v to an array (the value must be an array). */
    void push(Json v);

    /**
     * Set object member @p key to @p v, replacing an existing member of
     * the same name (the value must be an object).
     */
    void set(const std::string &key, Json v);

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Member lookup for mutation; creates nothing. */
    Json *find(const std::string &key);

    /**
     * Render as JSON text.  @p indent > 0 pretty-prints with that many
     * spaces per level; 0 emits the compact single-line form.
     */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    std::uint64_t u64_ = 0;
    std::int64_t i64_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

/** Append @p text to @p out with JSON string escaping (no quotes). */
void jsonEscape(std::string &out, std::string_view text);

/** Append @p v as dump() spells a double: "%.17g", or null when it is
 *  not finite (JSON has no inf/nan). */
void jsonAppendDouble(std::string &out, double v);

/** Result of parsing a JSON document. */
struct JsonParseResult
{
    bool ok = false;
    std::string error;  //!< human-readable message when !ok
    std::size_t offset = 0; //!< byte offset of the failure
    Json value;
};

/**
 * Parse one complete JSON document (strict: no trailing garbage, no
 * comments, no trailing commas).  The string_view form parses in place
 * — use it when scanning lines out of a larger buffer (e.g. a JSONL
 * journal) to avoid a copy per line.
 */
JsonParseResult jsonParse(std::string_view text);

/**
 * True when jsonParse(@p text) would succeed, checked without building
 * a tree: the fleet coordinator vets the journal lines its workers
 * send before it merges their bytes.
 */
bool jsonValid(std::string_view text);

} // namespace wo

#endif // WO_OBS_JSON_HH
