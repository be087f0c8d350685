/**
 * @file
 * Minimal command-line flag parsing for examples and benches.
 *
 * Supports "--name=value", "--name value", and bare "--name" for bools.
 * Unknown flags are fatal so typos in experiment scripts fail loudly.
 */

#ifndef CRW_COMMON_FLAGS_H_
#define CRW_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace crw {

/** Parsed command line: registered flags plus positional arguments. */
class FlagSet
{
  public:
    /** Register flags before parse(); @p help is shown by printHelp(). */
    void defineInt(const std::string &name, std::int64_t def,
                   const std::string &help);
    void defineString(const std::string &name, const std::string &def,
                      const std::string &help);
    void defineBool(const std::string &name, bool def,
                    const std::string &help);
    void defineDouble(const std::string &name, double def,
                      const std::string &help);

    /**
     * Parse argv. Throws FatalError on unknown or malformed flags.
     * "--help" prints usage and returns false.
     */
    bool parse(int argc, const char *const *argv);

    std::int64_t getInt(const std::string &name) const;
    const std::string &getString(const std::string &name) const;
    bool getBool(const std::string &name) const;
    double getDouble(const std::string &name) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    void printHelp(const std::string &program) const;

  private:
    enum class Kind { Int, String, Bool, Double };

    struct Flag
    {
        Kind kind;
        std::string help;
        std::string value; // canonical string form
    };

    const Flag &lookup(const std::string &name, Kind kind) const;
    void define(const std::string &name, Kind kind, std::string def,
                const std::string &help);

    std::map<std::string, Flag> flags_;
    std::vector<std::string> positional_;
};

} // namespace crw

#endif // CRW_COMMON_FLAGS_H_
