#ifndef GMT_IR_TEXT_HPP
#define GMT_IR_TEXT_HPP

/**
 * @file
 * The primitives of the text form, shared by the IR printer and parser
 * (ir/printer.hpp, ir/parser.hpp) and by the `.gmt` cell writer and
 * reader (workloads/serialize.hpp):
 *
 *  - writing appends to one std::string through a TextWriter, which
 *    renders integers with std::to_chars;
 *  - reading walks the text line by line (LineReader) and each line
 *    with one cursor (LineCursor) that hands out string_views into the
 *    text and parses integers with std::from_chars.
 *
 * Neither side goes through iostreams or allocates per token.
 */

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace gmt
{

/** Appends text and decimal integers to one std::string. */
class TextWriter
{
  public:
    explicit TextWriter(std::string &out) : out_(out) {}

    TextWriter &
    operator<<(std::string_view s)
    {
        out_ += s;
        return *this;
    }

    TextWriter &
    operator<<(char c)
    {
        out_ += c;
        return *this;
    }

    template <std::integral T>
    TextWriter &
    operator<<(T v)
    {
        char buf[20]; // "-9223372036854775808"
        out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        return *this;
    }

  private:
    std::string &out_;
};

/** How parsing a decimal integer ended. */
enum class IntParse { Ok, NoDigits, OutOfRange };

/**
 * Parse the decimal integer at the start of @p s: an optional '+' or
 * '-', then at least one digit, in int64 range. @p used receives the
 * length of the sign and digits, also when the value is out of range.
 */
inline IntParse
parseInt(std::string_view s, int64_t *value, size_t *used)
{
    size_t digits = !s.empty() && (s[0] == '-' || s[0] == '+') ? 1 : 0;
    size_t end = digits;
    while (end < s.size() && s[end] >= '0' && s[end] <= '9')
        ++end;
    *used = end;
    if (end == digits)
        return IntParse::NoDigits;
    // from_chars takes a '-' but no '+'.
    const char *first = s.data() + (s[0] == '+' ? 1 : 0);
    if (std::from_chars(first, s.data() + end, *value).ec != std::errc())
        return IntParse::OutOfRange;
    return IntParse::Ok;
}

/**
 * The '\n'-separated lines of a text, numbered from a given first line.
 * A last line without '\n' counts when it is not empty.
 */
class LineReader
{
  public:
    LineReader(std::string_view text, int first_line_no)
        : text_(text), no_(first_line_no - 1)
    {
    }

    /**
     * Move to the next line. At the end of the text this returns false,
     * line() is empty and lineNo() is one past the last line.
     */
    bool
    next()
    {
        if (pos_ >= text_.size()) {
            if (!ended_) {
                ended_ = true;
                ++no_;
            }
            line_ = {};
            return false;
        }
        size_t nl = text_.find('\n', pos_);
        if (nl == std::string_view::npos)
            nl = text_.size();
        line_ = text_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        ++no_;
        return true;
    }

    /** The current line (empty before the first next()). */
    std::string_view line() const { return line_; }

    /** The current line's 1-based number. */
    int lineNo() const { return no_; }

  private:
    std::string_view text_;
    std::string_view line_;
    size_t pos_ = 0;
    int no_;
    bool ended_ = false;
};

/**
 * A cursor over one line. The IR grammar separates by ' ' alone
 * (skipSpaces, tryConsume, token, integer); cell metadata is fields
 * separated by any whitespace (word).
 */
class LineCursor
{
  public:
    LineCursor(std::string_view line, int line_no)
        : line_(line), no_(line_no)
    {
    }

    std::string_view line() const { return line_; }
    int lineNo() const { return no_; }

    void
    skipSpaces()
    {
        while (pos_ < line_.size() && line_[pos_] == ' ')
            ++pos_;
    }

    bool
    atEnd()
    {
        skipSpaces();
        return pos_ >= line_.size();
    }

    /** Consume @p lit after spaces if it comes next. */
    bool
    tryConsume(std::string_view lit)
    {
        skipSpaces();
        if (line_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    /**
     * The next IR token after spaces: the longest run of characters
     * other than ' ' and `,()[]{`. Empty when there is none.
     */
    std::string_view
    token()
    {
        skipSpaces();
        size_t start = pos_;
        while (pos_ < line_.size() && !isDelimiter(line_[pos_]))
            ++pos_;
        return line_.substr(start, pos_ - start);
    }

    /** The decimal integer after spaces (see parseInt). */
    IntParse
    integer(int64_t *value)
    {
        skipSpaces();
        size_t used = 0;
        IntParse r = parseInt(line_.substr(pos_), value, &used);
        pos_ += used;
        return r;
    }

    /** The next whitespace-separated word; empty at the end. */
    std::string_view
    word()
    {
        while (pos_ < line_.size() && isWhitespace(line_[pos_]))
            ++pos_;
        size_t start = pos_;
        while (pos_ < line_.size() && !isWhitespace(line_[pos_]))
            ++pos_;
        return line_.substr(start, pos_ - start);
    }

  private:
    static bool
    isDelimiter(char c)
    {
        return c == ' ' || c == ',' || c == '(' || c == ')' || c == '[' ||
               c == ']' || c == '{';
    }

    /** std::isspace in the "C" locale. */
    static bool
    isWhitespace(char c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    std::string_view line_;
    size_t pos_ = 0;
    int no_;
};

} // namespace gmt

#endif // GMT_IR_TEXT_HPP
