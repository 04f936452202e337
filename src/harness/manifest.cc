#include "harness/manifest.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/knobs.hh"
#include "common/logging.hh"

namespace d2m
{

namespace
{

/** Strip leading/trailing ASCII whitespace. */
std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

const KnobRow *
findKey(const std::string &section, const std::string &key)
{
    for (const KnobRow &k : knobTable()) {
        if (k.section && section == k.section && key == k.key)
            return &k;
    }
    return nullptr;
}

bool
knownSection(const std::string &section)
{
    for (const KnobRow &k : knobTable()) {
        if (k.section && section == k.section)
            return true;
    }
    return false;
}

std::string
keysInSection(const std::string &section)
{
    std::string out;
    for (const KnobRow &k : knobTable()) {
        if (!k.section || section != k.section)
            continue;
        if (!out.empty())
            out += ", ";
        out += k.key;
    }
    return out;
}

std::string
sectionNames()
{
    std::string out;
    for (const KnobRow &k : knobTable()) {
        if (!k.section || out.find(k.section) != std::string::npos)
            continue;
        if (!out.empty())
            out += ", ";
        out += k.section;
    }
    return out;
}

} // namespace

Manifest
parseManifestText(const std::string &text, const std::string &source)
{
    Manifest m;
    m.source = source;
    std::string section;
    int lineNo = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        const std::string line = trim(text.substr(pos, nl - pos));
        pos = nl + 1;
        ++lineNo;
        if (line.empty() || line[0] == '#' || line[0] == ';')
            continue;
        if (line.front() == '[') {
            fatal_if(line.back() != ']' || line.size() < 3,
                     "%s:%d: malformed section header '%s'",
                     source.c_str(), lineNo, line.c_str());
            section = trim(line.substr(1, line.size() - 2));
            fatal_if(!knownSection(section),
                     "%s:%d: unknown section [%s] (known: %s)",
                     source.c_str(), lineNo, section.c_str(),
                     sectionNames().c_str());
            continue;
        }
        const std::size_t eq = line.find('=');
        fatal_if(eq == std::string::npos,
                 "%s:%d: expected 'key = value' or '[section]', got '%s'",
                 source.c_str(), lineNo, line.c_str());
        fatal_if(section.empty(),
                 "%s:%d: 'key = value' before any [section] header",
                 source.c_str(), lineNo);
        ManifestEntry e;
        e.section = section;
        e.key = trim(line.substr(0, eq));
        e.value = trim(line.substr(eq + 1));
        e.line = lineNo;
        fatal_if(e.key.empty(), "%s:%d: empty key", source.c_str(),
                 lineNo);
        fatal_if(e.value.empty(),
                 "%s:%d: empty value for '%s.%s' (delete the line to "
                 "keep the default)",
                 source.c_str(), lineNo, section.c_str(), e.key.c_str());
        const KnobRow *spec = findKey(section, e.key);
        fatal_if(!spec,
                 "%s:%d: unknown key '%s' in [%s] (known: %s)",
                 source.c_str(), lineNo, e.key.c_str(), section.c_str(),
                 keysInSection(section).c_str());
        std::uint64_t v;
        const char *why = spec->kind == KnobKind::U64
                              ? parseKnobU64(e.value.c_str(), v)
                              : nullptr;
        fatal_if(why, "%s:%d: %s.%s=\"%s\": %s", source.c_str(), lineNo,
                 section.c_str(), e.key.c_str(), e.value.c_str(), why);
        for (const ManifestEntry &prev : m.entries) {
            fatal_if(prev.section == e.section && prev.key == e.key,
                     "%s:%d: duplicate key '%s.%s' (first set on "
                     "line %d)",
                     source.c_str(), lineNo, section.c_str(),
                     e.key.c_str(), prev.line);
        }
        e.env = spec->env;
        m.entries.push_back(std::move(e));
    }
    return m;
}

Manifest
parseManifestFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    fatal_if(!f, "cannot open manifest '%s': %s", path.c_str(),
             std::strerror(errno));
    std::string text;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        text.append(chunk, n);
    std::fclose(f);
    return parseManifestText(text, path);
}

std::size_t
applyManifest(Manifest &m, bool verbose)
{
    std::size_t applied = 0;
    for (ManifestEntry &e : m.entries) {
        // overwrite=0: a variable the user exported wins over the
        // manifest, so ad-hoc overrides need no file edits.
        e.overridden = std::getenv(e.env.c_str()) != nullptr;
        if (!e.overridden) {
            ::setenv(e.env.c_str(), e.value.c_str(), 0);
            ++applied;
        }
        if (verbose) {
            std::fprintf(stderr, "manifest: %s.%s -> %s=%s%s\n",
                         e.section.c_str(), e.key.c_str(), e.env.c_str(),
                         e.overridden ? std::getenv(e.env.c_str())
                                      : e.value.c_str(),
                         e.overridden ? " (environment override)" : "");
        }
    }
    return applied;
}

} // namespace d2m
