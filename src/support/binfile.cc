#include "support/binfile.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/logging.h"

namespace npp {

FileRead
readWholeFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return FileRead::NotFound;
    out->clear();
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        out->append(buf, got);
    const bool readErr = std::ferror(f) != 0;
    std::fclose(f);
    return readErr ? FileRead::Error : FileRead::Ok;
}

bool
writeFileAtomic(const std::string &path,
                std::initializer_list<std::string_view> parts,
                const char *what)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    std::string tmpPath = dir + "/.npptmp.XXXXXX";
    const int fd = ::mkstemp(tmpPath.data());
    if (fd < 0) {
        NPP_WARN("{}: cannot create temp file in {} ({})", what, dir,
                 std::strerror(errno));
        return false;
    }
    const auto writeAll = [&](std::string_view s) {
        while (!s.empty()) {
            const ssize_t w = ::write(fd, s.data(), s.size());
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            s.remove_prefix(static_cast<size_t>(w));
        }
        return true;
    };
    bool wrote = true;
    for (std::string_view part : parts)
        wrote = wrote && writeAll(part);
    ::close(fd);
    if (!wrote || std::rename(tmpPath.c_str(), path.c_str()) != 0) {
        NPP_WARN("{}: cannot write {} ({})", what, path,
                 std::strerror(errno));
        ::unlink(tmpPath.c_str());
        return false;
    }
    return true;
}

bool
ensureDir(const std::string &dir)
{
    return ::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST;
}

} // namespace npp
