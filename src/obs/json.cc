#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace d2m::json
{

std::string
quote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";  // JSON has no inf/nan; stats never should either.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

std::string
number(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

const Value &
Value::operator[](const std::string &key) const
{
    static const Value null_value;
    const auto it = object.find(key);
    return it == object.end() ? null_value : it->second;
}

namespace
{

/** Recursive-descent parser over a bounded character range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : p_(text.data()), end_(text.data() + text.size()), err_(err)
    {}

    bool
    document(Value &out)
    {
        if (!value(out))
            return false;
        skipWs();
        if (p_ != end_)
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *what)
    {
        err_ = what;
        return false;
    }

    void
    skipWs()
    {
        while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_)))
            ++p_;
    }

    bool
    literal(const char *word, Value &out, Value::Kind kind, bool b)
    {
        for (const char *w = word; *w; ++w, ++p_) {
            if (p_ == end_ || *p_ != *w)
                return fail("bad literal");
        }
        out.kind = kind;
        out.boolean = b;
        return true;
    }

    bool
    string(std::string &out)
    {
        ++p_;  // opening quote
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_)
                    return fail("unterminated escape");
                switch (*p_) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'u': {
                    if (end_ - p_ < 5)
                        return fail("short \\u escape");
                    char hex[5] = {p_[1], p_[2], p_[3], p_[4], 0};
                    char *hend = nullptr;
                    const long code = std::strtol(hex, &hend, 16);
                    if (hend != hex + 4)
                        return fail("bad \\u escape");
                    // Writer only emits \u00xx control escapes; decode
                    // the latin-1 range and pass others through as '?'.
                    out.push_back(code < 0x100 ? static_cast<char>(code)
                                               : '?');
                    p_ += 4;
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++p_;
            } else {
                out.push_back(*p_++);
            }
        }
        if (p_ == end_)
            return fail("unterminated string");
        ++p_;  // closing quote
        return true;
    }

    bool
    value(Value &out)
    {
        skipWs();
        if (p_ == end_)
            return fail("unexpected end of input");
        switch (*p_) {
          case '{': {
            out.kind = Value::Kind::Object;
            ++p_;
            skipWs();
            if (p_ != end_ && *p_ == '}') {
                ++p_;
                return true;
            }
            while (true) {
                skipWs();
                if (p_ == end_ || *p_ != '"')
                    return fail("expected object key");
                std::string key;
                if (!string(key))
                    return false;
                skipWs();
                if (p_ == end_ || *p_ != ':')
                    return fail("expected ':'");
                ++p_;
                Value member;
                if (!value(member))
                    return false;
                out.object.emplace(std::move(key), std::move(member));
                skipWs();
                if (p_ == end_)
                    return fail("unterminated object");
                if (*p_ == ',') {
                    ++p_;
                    continue;
                }
                if (*p_ == '}') {
                    ++p_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            out.kind = Value::Kind::Array;
            ++p_;
            skipWs();
            if (p_ != end_ && *p_ == ']') {
                ++p_;
                return true;
            }
            while (true) {
                Value elem;
                if (!value(elem))
                    return false;
                out.array.push_back(std::move(elem));
                skipWs();
                if (p_ == end_)
                    return fail("unterminated array");
                if (*p_ == ',') {
                    ++p_;
                    continue;
                }
                if (*p_ == ']') {
                    ++p_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            out.kind = Value::Kind::String;
            return string(out.str);
          case 't':
            return literal("true", out, Value::Kind::Bool, true);
          case 'f':
            return literal("false", out, Value::Kind::Bool, false);
          case 'n':
            return literal("null", out, Value::Kind::Null, false);
          default: {
            const char *start = p_;
            if (*p_ == '-')
                ++p_;
            while (p_ != end_ &&
                   (std::isdigit(static_cast<unsigned char>(*p_)) ||
                    *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                    *p_ == '+' || *p_ == '-')) {
                ++p_;
            }
            if (p_ == start)
                return fail("unexpected character");
            char *nend = nullptr;
            const std::string text(start, p_);
            out.num = std::strtod(text.c_str(), &nend);
            if (nend != text.c_str() + text.size())
                return fail("bad number");
            out.kind = Value::Kind::Number;
            return true;
          }
        }
    }

    const char *p_;
    const char *end_;
    std::string &err_;
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &err)
{
    out = Value{};  // a reused output must not keep stale members
    return Parser(text, err).document(out);
}

} // namespace d2m::json
