/**
 * @file
 * Naive Bayes spam training (Section VI-E): over one document-by-word
 * count matrix, compute (a) the word total of each document — stride-1
 * in the word (inner) index — and (b) the per-class count of each word —
 * stride-1 in the word (outer) index. A fixed mapping can only coalesce
 * one of the two; the analysis adapts per kernel. The input matrix
 * transfer is significant because the job is not iterative.
 */

#include "apps/realworld.h"
#include "support/rng.h"

namespace npp {

namespace {

class NaiveBayesApp : public App
{
  public:
    NaiveBayesApp(int64_t docs, int64_t words)
        : App("NaiveBayes"), d(docs), w(words)
    {
        Rng rng(37);
        std::vector<double> wordCounts(d * w), spam(d);
        for (auto &v : wordCounts)
            v = static_cast<double>(rng.below(4));
        for (auto &v : spam)
            v = rng.below(2) ? 1.0 : 0.0;
        counts = HostArray(std::move(wordCounts));
        isSpam = HostArray(std::move(spam));
        buildDocTotals();
        buildWordClassCounts();
        hints_.paramValues = {{dParam1.ref()->varId, static_cast<double>(d)},
                              {wParam1.ref()->varId, static_cast<double>(w)}};
        inputBytes_ = static_cast<double>(d) * w * 8 + d * 8;
    }

  private:
    void
    buildDocTotals()
    {
        ProgramBuilder b("nb_doc_totals");
        Arr cnt = b.inF64("counts");
        dParam1 = b.paramI64("D");
        wParam1 = b.paramI64("W");
        Arr out = b.outF64("docTotals");
        dtCounts = cnt;
        dtOut = out;
        Ex wp = wParam1;
        b.map(dParam1, out, [&](Body &fn, Ex doc) {
            return fn.reduce(wp, Op::Add, [&](Body &, Ex word) {
                return cnt(doc * wp + word);
            });
        });
        docTotals = std::make_shared<Program>(b.build());
    }

    void
    buildWordClassCounts()
    {
        ProgramBuilder b("nb_word_class");
        Arr cnt = b.inF64("counts");
        Arr spam = b.inF64("isSpam");
        dParam2 = b.paramI64("D");
        wParam2 = b.paramI64("W");
        Arr out = b.outF64("spamPerWord");
        wcCounts = cnt;
        wcSpam = spam;
        wcOut = out;
        Ex dp = dParam2, wp = wParam2;
        b.map(wParam2, out, [&](Body &fn, Ex word) {
            return fn.reduce(dp, Op::Add, [&](Body &, Ex doc) {
                return cnt(Ex(doc) * wp + word) * spam(doc);
            });
        });
        wordClass = std::make_shared<Program>(b.build());
    }

    /** The document totals followed by the per-word spam counts. */
    std::vector<double>
    hostLoop(Runner &runner) override
    {
        HostArray totals(std::vector<double>(d, 0.0));
        HostArray spamPerWord(std::vector<double>(w, 0.0));
        {
            Bindings args(*docTotals);
            args.scalar(dParam1, static_cast<double>(d));
            args.scalar(wParam1, static_cast<double>(w));
            args.array(dtCounts, counts);
            args.array(dtOut, totals);
            runner.launch(*docTotals, args);
        }
        {
            Bindings args(*wordClass);
            args.scalar(dParam2, static_cast<double>(d));
            args.scalar(wParam2, static_cast<double>(w));
            args.array(wcCounts, counts);
            args.array(wcSpam, isSpam);
            args.array(wcOut, spamPerWord);
            runner.launch(*wordClass, args);
        }
        std::vector<double> out = std::move(totals.mut());
        out.insert(out.end(), spamPerWord.values().begin(),
                   spamPerWord.values().end());
        return out;
    }

    int64_t d, w;
    HostArray counts, isSpam;
    std::shared_ptr<Program> docTotals, wordClass;
    Arr dtCounts, dtOut, wcCounts, wcSpam, wcOut;
    Ex dParam1, wParam1, dParam2, wParam2;
};

} // namespace

std::unique_ptr<App>
makeNaiveBayes(int64_t docs, int64_t words)
{
    return std::make_unique<NaiveBayesApp>(docs, words);
}

} // namespace npp
