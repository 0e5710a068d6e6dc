#include "models/medical_seg.hh"

#include "models/registry.hh"

#include "core/logging.hh"
#include "nn/fuse.hh"

namespace mmbench {
namespace models {

namespace ag = mmbench::autograd;
using fusion::FusionKind;

MedicalSeg::MedicalSeg(WorkloadConfig config)
    : MultiModalWorkload("medical-seg", config)
{
    hw_ = std::max<int64_t>(16, (scaled(32, 16) / 8) * 8);
    // Fusion happens one level below the U-Net bottleneck (mmFormer
    // fuses at the deepest resolution), so fusion tokens live at 1/8
    // of the input extent.
    bottleneckHw_ = hw_ / 8;
    const int64_t base = scaled(8, 4);

    info_.name = "medical-seg";
    info_.domain = "Intelligent Medicine";
    info_.modelSize = "Medium";
    info_.taskName = "Seg.";
    info_.encoderNames = {"U-Net", "U-Net", "U-Net", "U-Net"};
    info_.supportedFusions = {FusionKind::Transformer};

    dataSpec_.task = data::TaskKind::Segmentation;
    dataSpec_.numClasses = kClasses;
    const char *mri_names[kModalities] = {"T1", "T1c", "T2", "Flair"};
    const double informativeness[kModalities] = {0.9, 0.7, 0.6, 0.5};
    for (int64_t m = 0; m < kModalities; ++m) {
        dataSpec_.modalities.push_back(
            {mri_names[m], Shape{1, hw_, hw_},
             data::ModalityEncoding::Dense, 0, informativeness[m]});
    }

    encoders_.reserve(kModalities);
    for (int64_t m = 0; m < kModalities; ++m) {
        encoders_.push_back(std::make_unique<UNetEncoder>(1, base));
        registerChild(*encoders_.back());
    }
    const int64_t c3 = encoders_[0]->bottleneckChannels();
    bottleneckFusion_ = std::make_unique<nn::TransformerEncoderLayer>(
        c3, 4, 2 * c3, 0.0f);
    registerChild(*bottleneckFusion_);
    // Learned channel-wise selection over the concatenated modality
    // skips (a noisy modality can be gated out, unlike plain
    // averaging).
    skip1Select_ = std::make_unique<nn::Conv2d>(
        kModalities * encoders_[0]->skip1Channels(),
        encoders_[0]->skip1Channels(), 1, 1, 0);
    skip2Select_ = std::make_unique<nn::Conv2d>(
        kModalities * encoders_[0]->skip2Channels(),
        encoders_[0]->skip2Channels(), 1, 1, 0);
    registerChild(*skip1Select_);
    registerChild(*skip2Select_);
    declareFusedPair(
        nn::fusedPairName(*skip1Select_, tensor::ActKind::Relu));
    declareFusedPair(
        nn::fusedPairName(*skip2Select_, tensor::ActKind::Relu));
    decoder_ = std::make_unique<UNetDecoder>(
        c3, encoders_[0]->skip2Channels(), encoders_[0]->skip1Channels(),
        kClasses);
    uniDecoder_ = std::make_unique<UNetDecoder>(
        c3, encoders_[0]->skip2Channels(), encoders_[0]->skip1Channels(),
        kClasses);
    registerChild(*decoder_);
    registerChild(*uniDecoder_);

    lastEncodings_.resize(kModalities);
}

Var
MedicalSeg::bottleneckTokens(const Var &bottleneck) const
{
    // Downsample once more so fusion runs at the deepest resolution,
    // then bottleneck spatial positions become tokens: (B, T, C3).
    Var deep = ag::avgpool2d(bottleneck, 2, 2);
    const int64_t batch = deep.value().size(0);
    const int64_t c = deep.value().size(1);
    const int64_t t = bottleneckHw_ * bottleneckHw_;
    Var flat = ag::reshape(deep, Shape{batch, c, t});
    return ag::swapDims(flat, 1, 2);
}

Var
MedicalSeg::encodeModality(size_t m, const Var &input)
{
    UNetEncoder::Output enc = encoders_[m]->forward(input);
    lastEncodings_[m] = enc;
    return bottleneckTokens(enc.bottleneck);
}

Var
MedicalSeg::encodeModalityCtx(pipeline::ExecContext &ctx, size_t m,
                              const Var &input)
{
    UNetEncoder::Output enc = encoders_[m]->forward(input);
    // The decoder's skip connections bypass the fusion join; stash
    // them in the execution context so concurrent requests never
    // share model state.
    ctx.stash[2 * m] = enc.skip1;
    ctx.stash[2 * m + 1] = enc.skip2;
    return bottleneckTokens(enc.bottleneck);
}

Var
MedicalSeg::fuseFeatures(const std::vector<Var> &features)
{
    // mmFormer-style: self-attention over the concatenation of every
    // modality's bottleneck tokens, then a per-position average across
    // modalities to restore the spatial bottleneck.
    Var all = ag::concat(features, 1); // (B, 4T, C3)
    Var attended = bottleneckFusion_->forward(all);
    const int64_t t = bottleneckHw_ * bottleneckHw_;
    Var acc = ag::narrow(attended, 1, 0, t);
    for (int64_t m = 1; m < kModalities; ++m)
        acc = ag::add(acc, ag::narrow(attended, 1, m * t, t));
    acc = ag::mulScalar(acc, 1.0f / static_cast<float>(kModalities));
    const int64_t batch = acc.value().size(0);
    const int64_t c = acc.value().size(2);
    Var spatial = ag::reshape(ag::swapDims(acc, 1, 2),
                              Shape{batch, c, bottleneckHw_,
                                    bottleneckHw_});
    // Back up to the decoder's expected bottleneck resolution.
    return ag::upsampleNearest2x(spatial);
}

Var
MedicalSeg::headForward(const Var &fused)
{
    // Concatenate per-modality skips channel-wise and let a 1x1 conv
    // select informative channels for the shared decoder.
    std::vector<Var> skips1, skips2;
    for (int64_t m = 0; m < kModalities; ++m) {
        skips1.push_back(lastEncodings_[static_cast<size_t>(m)].skip1);
        skips2.push_back(lastEncodings_[static_cast<size_t>(m)].skip2);
    }
    Var skip1 = nn::fusedConv2dAct(*skip1Select_, ag::concat(skips1, 1),
                                   tensor::ActKind::Relu);
    Var skip2 = nn::fusedConv2dAct(*skip2Select_, ag::concat(skips2, 1),
                                   tensor::ActKind::Relu);
    return decoder_->forward(fused, skip2, skip1);
}

Var
MedicalSeg::headForwardCtx(pipeline::ExecContext &ctx, const Var &fused)
{
    // Same decoder path as headForward, but the skips come from the
    // execution context (stashed by encodeModalityCtx) instead of
    // model state. A dropped modality never stashed its skips: impute
    // zeros shaped like a live modality's (every encoder shares the
    // same geometry), mirroring the fusion node's zero imputation.
    const Var *live1 = nullptr;
    const Var *live2 = nullptr;
    for (int64_t m = 0; m < kModalities; ++m) {
        if (ctx.stash[static_cast<size_t>(2 * m)].defined()) {
            live1 = &ctx.stash[static_cast<size_t>(2 * m)];
            live2 = &ctx.stash[static_cast<size_t>(2 * m + 1)];
            break;
        }
    }
    MM_ASSERT(live1 != nullptr,
              "medical-seg request dropped every modality");
    std::vector<Var> skips1, skips2;
    for (int64_t m = 0; m < kModalities; ++m) {
        const Var &s1 = ctx.stash[static_cast<size_t>(2 * m)];
        const Var &s2 = ctx.stash[static_cast<size_t>(2 * m + 1)];
        skips1.push_back(
            s1.defined() ? s1
                         : Var(Tensor::zeros(live1->value().shape())));
        skips2.push_back(
            s2.defined() ? s2
                         : Var(Tensor::zeros(live2->value().shape())));
    }
    Var skip1 = nn::fusedConv2dAct(*skip1Select_, ag::concat(skips1, 1),
                                   tensor::ActKind::Relu);
    Var skip2 = nn::fusedConv2dAct(*skip2Select_, ag::concat(skips2, 1),
                                   tensor::ActKind::Relu);
    return decoder_->forward(fused, skip2, skip1);
}

Var
MedicalSeg::uniHeadForward(size_t m, const Var &feature)
{
    // feature: (B, T, C3) tokens of this modality's deep bottleneck.
    const int64_t batch = feature.value().size(0);
    const int64_t c = feature.value().size(2);
    Var spatial = ag::reshape(ag::swapDims(feature, 1, 2),
                              Shape{batch, c, bottleneckHw_,
                                    bottleneckHw_});
    const UNetEncoder::Output &enc = lastEncodings_[m];
    return uniDecoder_->forward(ag::upsampleNearest2x(spatial), enc.skip2,
                                enc.skip1);
}


MMBENCH_REGISTER_WORKLOAD(MedicalSeg, "medical-seg",
                          "Intelligent medicine: multi-sequence MRI tumor segmentation",
                          fusion::FusionKind::Transformer, 5);

} // namespace models
} // namespace mmbench
