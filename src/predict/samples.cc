#include "predict/samples.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "support/binfile.h"
#include "support/logging.h"

namespace npp {

namespace {

constexpr uint32_t kRecordMagic = 0x31504d53u; // "SMP1"

/** Fixed record layout: magic, schema version, feature count, the
 *  features, the label, then an FNV-1a checksum of everything before it.
 *  Fixed size (the count is part of the schema), so a reader walks a
 *  file in constant strides and one corrupt record cannot desynchronize
 *  the rest. */
constexpr size_t kRecordBytes = 3 * sizeof(uint32_t) +
                                (kPredictFeatureCount + 1) * sizeof(double) +
                                sizeof(uint64_t);

void
packRecord(const PredictSample &s, char out[kRecordBytes])
{
    char *p = out;
    const auto put = [&](const void *src, size_t n) {
        std::memcpy(p, src, n);
        p += n;
    };
    const uint32_t magic = kRecordMagic;
    const uint32_t version = kPredictFeatureVersion;
    const uint32_t count = kPredictFeatureCount;
    put(&magic, sizeof magic);
    put(&version, sizeof version);
    put(&count, sizeof count);
    put(s.features.v.data(), kPredictFeatureCount * sizeof(double));
    put(&s.measuredMs, sizeof(double));
    const uint64_t sum = fnvBytes(out, static_cast<size_t>(p - out));
    put(&sum, sizeof sum);
}

bool
unpackRecord(const char *in, PredictSample *out)
{
    const char *p = in;
    const auto get = [&](void *dst, size_t n) {
        std::memcpy(dst, p, n);
        p += n;
    };
    uint32_t magic = 0, version = 0, count = 0;
    get(&magic, sizeof magic);
    get(&version, sizeof version);
    get(&count, sizeof count);
    if (magic != kRecordMagic || version != kPredictFeatureVersion ||
        count != kPredictFeatureCount)
        return false;
    get(out->features.v.data(), kPredictFeatureCount * sizeof(double));
    get(&out->measuredMs, sizeof(double));
    uint64_t sum = 0;
    get(&sum, sizeof sum);
    return fnvBytes(in, kRecordBytes - sizeof(uint64_t)) == sum;
}

std::vector<std::string>
sampleFiles(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return names;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        const std::string suffix = ".nppsmp";
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            names.push_back(dir + "/" + name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace

struct SampleWriter::Impl
{
    std::mutex mu;
    std::FILE *file = nullptr;
    uint64_t appended = 0;
    bool warned = false;
};

SampleWriter::SampleWriter(std::string dir)
    : impl_(new Impl)
{
    if (dir.empty())
        return;
    if (!ensureDir(dir))
        NPP_WARN("predict samples: cannot create {} ({}); harvesting "
                 "disabled",
                 dir, std::strerror(errno));
    const std::string path =
        dir + "/samples-" + std::to_string(::getpid()) + ".nppsmp";
    impl_->file = std::fopen(path.c_str(), "ab");
    if (!impl_->file)
        NPP_WARN("predict samples: cannot open {} ({}); harvesting "
                 "disabled",
                 path, std::strerror(errno));
}

SampleWriter::~SampleWriter()
{
    if (impl_->file)
        std::fclose(impl_->file);
    delete impl_;
}

bool
SampleWriter::enabled() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->file != nullptr;
}

void
SampleWriter::append(const PredictSample &sample)
{
    char rec[kRecordBytes];
    packRecord(sample, rec);
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->file)
        return;
    if (std::fwrite(rec, 1, kRecordBytes, impl_->file) != kRecordBytes ||
        std::fflush(impl_->file) != 0) {
        if (!impl_->warned) {
            impl_->warned = true;
            NPP_WARN("predict samples: short write ({}); harvesting "
                     "disabled",
                     std::strerror(errno));
        }
        std::fclose(impl_->file);
        impl_->file = nullptr;
        return;
    }
    impl_->appended++;
}

uint64_t
SampleWriter::appended() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->appended;
}

std::vector<PredictSample>
loadPredictSamples(const std::string &dir, SampleLoadStats *stats)
{
    std::vector<PredictSample> samples;
    SampleLoadStats local;
    for (const std::string &path : sampleFiles(dir)) {
        std::string data;
        if (readWholeFile(path, &data) != FileRead::Ok)
            continue;
        local.files++;
        size_t off = 0;
        for (; off + kRecordBytes <= data.size(); off += kRecordBytes) {
            PredictSample s;
            if (unpackRecord(data.data() + off, &s)) {
                samples.push_back(s);
                local.records++;
            } else {
                local.rejected++;
            }
        }
        if (off != data.size())
            local.rejected++; // trailing partial record
    }
    if (stats)
        *stats = local;
    return samples;
}

uint64_t
countPredictSamples(const std::string &dir)
{
    if (dir.empty())
        return 0;
    uint64_t count = 0;
    for (const std::string &path : sampleFiles(dir)) {
        std::string data;
        if (readWholeFile(path, &data) != FileRead::Ok)
            continue;
        for (size_t off = 0; off + kRecordBytes <= data.size();
             off += kRecordBytes) {
            PredictSample s;
            if (unpackRecord(data.data() + off, &s))
                count++;
        }
    }
    return count;
}

} // namespace npp
