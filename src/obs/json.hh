/**
 * @file
 * Minimal JSON support for the observability layer.
 *
 * Writer half: string escaping and deterministic number formatting
 * (fixed "%.6f"-style precision for floats, exact integers for
 * counters) so stats exports are bit-identical across runs — the
 * "golden file diff" property the deterministic-stats check relies on.
 *
 * Parser half: a small recursive-descent JSON reader used by the
 * result store (loading records, rebuilding Metrics from stored rows)
 * and by the tests. It accepts exactly the subset the writer emits
 * (objects, arrays, strings, numbers, bools, null).
 */

#ifndef D2M_OBS_JSON_HH
#define D2M_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace d2m::json
{

/** Escape @p s as a JSON string literal, including the quotes. */
std::string quote(const std::string &s);

/** Deterministic float formatting: fixed 6-digit precision. */
std::string number(double v);

/** Exact integer formatting. */
std::string number(std::uint64_t v);

/** A parsed JSON value (small DOM for the store and the tests). */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; null-kind reference when absent. */
    const Value &operator[](const std::string &key) const;

    double asNumber() const { return num; }
    const std::string &asString() const { return str; }
};

/**
 * Parse @p text as one JSON document.
 * @return true on success; on failure fills @p err with a message and
 * leaves @p out unspecified.
 */
bool parse(const std::string &text, Value &out, std::string &err);

} // namespace d2m::json

#endif // D2M_OBS_JSON_HH
