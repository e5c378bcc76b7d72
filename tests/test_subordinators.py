"""Clock path sampling and the exact / asymptotic / Monte Carlo moment
oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gmfbm import subordinators
from gmfbm.randkit import derive_stream
from gmfbm.selftest import mean_z
from gmfbm.subordinators import (
    GammaParams,
    QuadratureError,
    SubordinatorSpec,
    TssParams,
    gamma_moment,
    sample_increment,
    sample_path,
    subordinator_moment,
    subordinator_moment_asymptotic,
    tss_mean,
    tss_moment,
    tss_variance,
)

# E[X_t**q] for the tempered stable clock at alpha = 1/2, where the law is
# inverse Gaussian with mu = t/(2 sqrt(lambda)), shape = t**2/2, and the
# moment has the closed Bessel-ratio form
#   mu**q * K_{q-1/2}(t sqrt(lambda)) / K_{-1/2}(t sqrt(lambda)).
# Values computed from scipy.special.kve, an oracle independent of the
# quadrature route under test.
IG_MOMENTS = {
    (1.0, 1.0, 0.6): 0.6046597217253444,
    (1.0, 1.0, 1.4): 0.4627518227617412,
    (1.0, 1.0, 1.9): 0.48626206534997174,
    (2.0, 10.0, 0.6): 2.1159700905182923,
    (2.0, 10.0, 1.4): 5.9724075719881995,
    (2.0, 10.0, 1.9): 11.67983708289766,
    (0.5, 100.0, 0.6): 12.851656691437707,
    (0.5, 100.0, 1.4): 389.93005790162806,
    (0.5, 100.0, 1.9): 3305.49135521183,
}

# E[X_t**q] for the tempered stable clock on the grid below, from
# mpmath_tss_moment: an mpmath quadrature at 30 digits of a representation
# other than the one tss_moment evaluates.  Keys are (alpha, lambda, t);
# values follow REFERENCE_Q.  Regenerate with
#   PYTHONPATH=src python tests/test_subordinators.py
REFERENCE_ALPHA = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99)
REFERENCE_LAM = (1e-3, 1.0, 100.0)
REFERENCE_T = (1e-2, 1.0, 10.0, 1e4)
REFERENCE_Q = (0.05, 0.5, 0.99, 1.01, 1.6, 1.95)
TSS_REFERENCE = {
    (0.05, 0.001, 0.01): (
        0.04281142620147161, 0.021345471972565408, 0.33257035853423034,
        0.37681957910576896, 19.251901042886416, 233.74726949005594,
    ),
    (0.05, 0.001, 1.0): (
        0.7285943816800264, 2.01450169498408, 33.23599340915035,
        37.70542403793271, 1975.5739842451449, 24209.21783590522,
    ),
    (0.05, 0.001, 10.0): (
        1.2486648207307387, 14.251705767783037, 330.87419233780525,
        378.72526059555395, 24020.38224448791, 317366.9043453095,
    ),
    (0.05, 0.001, 10000.0): (
        1.8941780923994567, 594.7566634235192, 311511.82527841657,
        402221.7836423471, 756677672.9111309, 66308578227.20253,
    ),
    (0.05, 1.0, 0.01): (
        0.039582785598287, 0.0009532230526302575, 0.0005033642392466109,
        0.0004967462764164392, 0.0004310437557574142, 0.00046645655942320635,
    ),
    (0.05, 1.0, 1.0): (
        0.5821547223705134, 0.0880050032532951, 0.05029198742781411,
        0.049717807380509384, 0.04469240993326651, 0.048996740215928,
    ),
    (0.05, 1.0, 10.0): (
        0.9186357819120605, 0.5736746673920995, 0.5000234892116869,
        0.5000232411469868, 0.578056596128494, 0.7014582151996385,
    ),
    (0.05, 1.0, 10000.0): (
        1.36435974865975, 22.35537001044058, 469.8683812880712,
        532.0639936860094, 20832.807578616525, 183550.30485509106,
    ),
    (0.05, 100.0, 0.01): (
        0.037449923815596434, 0.00011997644182057434, 6.635617021363432e-06,
        5.972217953071546e-06, 3.424235879024344e-07, 7.393813979253135e-08,
    ),
    (0.05, 100.0, 1.0): (
        0.49691895716424006, 0.010871497911052574, 0.0006628321178594734,
        0.0005978686155600519, 3.582580663818225e-05, 7.862771301997465e-06,
    ),
    (0.05, 100.0, 10.0): (
        0.7460576836037265, 0.06684382614806576, 0.006583674887237827,
        0.006018769890570461, 0.0004864003706269272, 0.00012071613109874673,
    ),
    (0.05, 100.0, 10000.0): (
        1.09630887684857, 2.5084362861132856, 6.179837575856423,
        6.411549705078302, 18.996187361473837, 36.19079917884239,
    ),
    (0.1, 0.001, 0.01): (
        0.15899149810328975, 0.03285859585289195, 0.4713201101242278,
        0.5330493723721321, 26.235808005781358, 314.13803432859305,
    ),
    (0.1, 0.001, 1.0): (
        0.9042749620456029, 2.9664281434263957, 47.0849331096559,
        53.35723656407142, 2727.68507131102, 33092.221454369115,
    ),
    (0.1, 0.001, 10.0): (
        1.3056488110212352, 18.459606076334765, 467.9229619395248,
        536.8660847755845, 35793.09439210238, 481773.1896483929,
    ),
    (0.1, 0.001, 10000.0): (
        1.927442696981468, 707.7869076148892, 439537.7098246553,
        571483.817207744, 1319392725.7708993, 130533425064.08308,
    ),
    (0.1, 1.0, 0.01): (
        0.15413335988004254, 0.0020707913103643356, 0.00100765387829235,
        0.0009925946616379177, 0.0008299842095028726, 0.0008858374512473917,
    ),
    (0.1, 1.0, 1.0): (
        0.7427094693259545, 0.17234745846511096, 0.10057399116840884,
        0.0994449986035058, 0.08948696026505525, 0.09800998957404392,
    ),
    (0.1, 1.0, 10.0): (
        0.9780702299780946, 0.9004810715733024, 0.9962510789099371,
        1.0038247071257842, 1.387529744826385, 1.8201054155090988,
    ),
    (0.1, 1.0, 10000.0): (
        1.4125073498430776, 31.619219417397364, 933.2501439094171,
        1071.5241743981785, 63122.98833530256, 708535.9339741463,
    ),
    (0.1, 100.0, 0.01): (
        0.15002331026923044, 0.00032774606374561525, 1.6722684850030185e-05,
        1.5023710429290054e-05, 8.303770436177041e-07, 1.7685921086444755e-07,
    ),
    (0.1, 100.0, 1.0): (
        0.6384865585135722, 0.025193684487618932, 0.0016674885669831334,
        0.0015066048308601796, 9.31811479065242e-05, 2.066240348225818e-05,
    ),
    (0.1, 100.0, 10.0): (
        0.8016151485768197, 0.1176049581414519, 0.016478107953303657,
        0.015244449771139429, 0.0016524361078430038, 0.00046979225903950563,
    ),
    (0.1, 100.0, 10000.0): (
        1.1481381360989746, 3.9807891372587094, 15.416961198607364,
        16.293007044321964, 83.19904697131942, 218.89123323689418,
    ),
    (0.2, 0.001, 0.01): (
        0.37211165081044206, 0.040681852190187245, 0.47343990979842226,
        0.5332057390121627, 24.16864733934735, 280.93274159396816,
    ),
    (0.2, 0.001, 1.0): (
        1.0026406916491988, 3.379325826720458, 47.28105709186196,
        53.389759277129436, 2529.6642808398074, 29793.305233444535,
    ),
    (0.2, 0.001, 10.0): (
        1.3180091603028523, 19.03609661572879, 469.3726556471604,
        537.7512090635113, 34307.11656897491, 450402.0331439983,
    ),
    (0.2, 0.001, 10000.0): (
        1.9276805925776062, 708.6447388582152, 440571.37212277314,
        572853.7846983821, 1324279760.55649, 131113851027.92773,
    ),
    (0.2, 1.0, 0.01): (
        0.3666545012046322, 0.00507471751040126, 0.0020195097935890873,
        0.0019811309422624658, 0.0015271164401746689, 0.0015826841421315374,
    ),
    (0.2, 1.0, 1.0): (
        0.8553249914895416, 0.32189733790139236, 0.20106930364825326,
        0.1989641846956759, 0.179809068543655, 0.19615473497534414,
    ),
    (0.2, 1.0, 10.0): (
        1.025596008158007, 1.3486604578901114, 1.9826067553264428,
        2.0176132103006235, 3.5806511106670302, 5.282843581275292,
    ),
    (0.2, 1.0, 10000.0): (
        1.4623366813620955, 44.719123649723386, 1853.6120151195466,
        2157.9489814161757, 191307.22154398425, 2736335.6351817194,
    ),
    (0.2, 100.0, 0.01): (
        0.35945381144710664, 0.001253954166269644, 5.311389282501294e-05,
        4.752804546160754e-05, 2.4272747761234428e-06, 5.023292806017047e-07,
    ),
    (0.2, 100.0, 1.0): (
        0.7411710178177252, 0.060197423064726044, 0.0052664478158083484,
        0.004792712695604104, 0.00034307116568974884, 8.009406617796413e-05,
    ),
    (0.2, 100.0, 10.0): (
        0.8578561909280011, 0.21980869543777024, 0.051723787813036555,
        0.04879508485410814, 0.00897202009301306, 0.0033616642123341627,
    ),
    (0.2, 100.0, 10000.0): (
        1.2163256275707939, 7.08771674870066, 48.308032898234195,
        52.24450814266152, 526.8429670553754, 2075.2601394636536,
    ),
    (0.3, 0.001, 0.01): (
        0.5065834270784797, 0.041311767148130486, 0.35684061019136326,
        0.3998443733992414, 16.483084618658037, 185.50552074519973,
    ),
    (0.3, 0.001, 1.0): (
        1.0245964792251687, 3.036411644306345, 35.631648606576384,
        40.04118697270747, 1718.451364146118, 19520.95959362221,
    ),
    (0.3, 0.001, 10.0): (
        1.298930770204891, 16.37211594105698, 353.7167628789243,
        403.30272041010244, 22770.161139940014, 282279.82875773706,
    ),
    (0.3, 0.001, 10000.0): (
        1.9003646800381417, 614.4125108747947, 332159.0272789603,
        429434.1024026115, 839034991.9212377, 75185023756.5684,
    ),
    (0.3, 1.0, 0.01): (
        0.5016710184792788, 0.00979979103398244, 0.003036849230768561,
        0.002964420615057896, 0.0020813951533816214, 0.0020890538846817163,
    ),
    (0.3, 1.0, 1.0): (
        0.9026443569911432, 0.44664508824521, 0.3014286971507081,
        0.2986126897643029, 0.27179224818778736, 0.2945724233613532,
    ),
    (0.3, 1.0, 10.0): (
        1.050806566271772, 1.6845823381021363, 2.964020187374029,
        3.036480191073673, 6.423849923198482, 10.349346731164257,
    ),
    (0.3, 1.0, 10000.0): (
        1.4922914684360775, 54.7706583295574, 2769.1695064374617,
        3250.0719761117157, 365967.60486427625, 6032263.41424921,
    ),
    (0.3, 100.0, 0.01): (
        0.4919385691363913, 0.003538437156840136, 0.0001265489104872401,
        0.00011274523792833314, 5.281867662018653e-06, 1.06007243576609e-06,
    ),
    (0.3, 100.0, 1.0): (
        0.7911591601096966, 0.10237463703834329, 0.012452935400612788,
        0.011454884509330352, 0.0010538162113144308, 0.000273338969210646,
    ),
    (0.3, 100.0, 10.0): (
        0.8979581948047114, 0.343098071228583, 0.12196248360977639,
        0.11695498115006657, 0.03430193502249295, 0.01672286729479229,
    ),
    (0.3, 100.0, 10000.0): (
        1.2701513033618301, 10.928421715913446, 113.85442548749327,
        125.28313023121757, 2105.7471681208594, 11230.782667272173,
    ),
    (0.5, 0.001, 0.01): (
        0.6534522492511907, 0.0461369706785492, 0.1505159847508262,
        0.16617601437039542, 5.356399842616865, 55.949999540656265,
    ),
    (0.5, 0.001, 1.0): (
        1.0230978773039432, 2.079422004901776, 15.019842679664329,
        16.650377379903304, 551.9081812946287, 5769.819791470155,
    ),
    (0.5, 0.001, 10.0): (
        1.2398007888763052, 10.250853012697979, 149.11828126003704,
        167.67704600153664, 6796.523127106469, 73405.94623948596,
    ),
    (0.5, 0.001, 10000.0): (
        1.8193486561983465, 397.47846387564005, 140272.81640890054,
        178224.18151462966, 208453974.5099098, 13780392132.940323,
    ),
    (0.5, 1.0, 0.01): (
        0.6500648286289293, 0.026904474980311722, 0.005095736678281215,
        0.00490808767996203, 0.0027102448712174967, 0.0025233753105040778,
    ),
    (0.5, 1.0, 1.0): (
        0.9494815929234641, 0.6456941483820346, 0.5016795693981815,
        0.4983612445157408, 0.46331483214406527, 0.4927333603144118,
    ),
    (0.5, 1.0, 10.0): (
        1.0813445200193945, 2.209546579937868, 4.917848394127638,
        5.083572414384337, 13.747832241501776, 25.196210786007814,
    ),
    (0.5, 1.0, 10000.0): (
        1.5309022763484195, 70.70979428489153, 4591.769609193715,
        5444.524089347187, 828653.2767491826, 16331712.758725477,
    ),
    (0.5, 100.0, 0.01): (
        0.636643396629907, 0.015133404465749787, 0.0005315560880289626,
        0.0004704345522484077, 1.85081695925052e-05, 3.458385367142412e-06,
    ),
    (0.5, 100.0, 1.0): (
        0.8589424837157812, 0.2209546579937868, 0.05149619448477322,
        0.04854773966240133, 0.00867429572345714, 0.003172015003942753,
    ),
    (0.5, 100.0, 10.0): (
        0.9657080816774112, 0.7062278185419413, 0.5034529768701891,
        0.4965711997863061, 0.3314563044347785, 0.26121263833515346,
    ),
    (0.5, 100.0, 10000.0): (
        1.3644210062730113, 22.3606518243054, 469.8727756423296,
        532.0589172425271, 20813.930091171973, 183229.55678599124,
    ),
    (0.7, 0.001, 0.01): (
        0.7302329196617046, 0.06281134224995022, 0.05372036784291486,
        0.05760994204898238, 1.253633775554655, 11.928999015053874,
    ),
    (0.7, 0.001, 1.0): (
        1.0123202334183017, 1.443925132843367, 5.342141863197854,
        5.79035913023934, 128.83401160758316, 1215.6178809451665,
    ),
    (0.7, 0.001, 10.0): (
        1.1830078740438594, 6.1176771610504606, 52.94436906994447,
        58.40736253908102, 1529.896624755369, 14188.42343655525,
    ),
    (0.7, 0.001, 10000.0): (
        1.726631481147315, 235.64484209794304, 49846.597557496294,
        62024.14614133389, 39199228.21246031, 1799307826.7859724,
    ),
    (0.7, 1.0, 0.01): (
        0.7282414620377684, 0.05303510859690912, 0.007201881253282051,
        0.006807077266837207, 0.0025872352258137703, 0.0021722373718739245,
    ),
    (0.7, 1.0, 1.0): (
        0.9753108447408835, 0.804356318559616, 0.7013563188927782,
        0.6986713842363128, 0.6674443852395819, 0.6933322974472571,
    ),
    (0.7, 1.0, 10.0): (
        1.1011232106197657, 2.632250076551096, 6.863700893477502,
        7.139035685069569, 22.953394800748885, 46.21765944381354,
    ),
    (0.7, 1.0, 10000.0): (
        1.556877563505828, 83.66555446628739, 6406.885571898203,
        7648.02175099219, 1419599.3696076, 31474469.4089471,
    ),
    (0.7, 100.0, 0.01): (
        0.7151128400681338, 0.037780065772756194, 0.0018650735797214927,
        0.00165785118003106, 6.242217749022555e-05, 1.0660757537540487e-05,
    ),
    (0.7, 100.0, 1.0): (
        0.9163952403720137, 0.4184469658922902, 0.1789002520994732,
        0.17281676140943297, 0.062470285435356966, 0.03425659506463921,
    ),
    (0.7, 100.0, 10.0): (
        1.0285782686691947, 1.3257345689429354, 1.748410466616051,
        1.7682870092760852, 2.4689490345057594, 3.010418690704739,
    ),
    (0.7, 100.0, 10000.0): (
        1.4529641019024138, 41.932323475552344, 1631.7253323000489,
        1894.7373845832572, 155652.90113730746, 2127854.187558556,
    ),
    (0.9, 0.001, 0.01): (
        0.7771349321061306, 0.08683485575987564, 0.01802319754010475,
        0.01792339289868776, 0.15497241344943774, 1.301175117749398,
    ),
    (0.9, 0.001, 1.0): (
        1.0034386879912343, 1.103279091464428, 1.7627326554698584,
        1.8303229580677862, 16.690286656084645, 132.8149810529549,
    ),
    (0.9, 0.001, 10.0): (
        1.139117811887527, 3.8488157309160136, 17.353228453292004,
        18.58601725246132, 220.81804010404738, 1560.546921380321,
    ),
    (0.9, 0.001, 10000.0): (
        1.6317604095040181, 133.91403449551572, 16281.271403330102,
        19806.007724358602, 6425975.522835089, 198611865.64232737,
    ),
    (0.9, 1.0, 0.01): (
        0.7764652554185059, 0.08389601385690475, 0.009366622992651667,
        0.00865004174531684, 0.0015475742192515383, 0.0010146411652347184,
    ),
    (0.9, 1.0, 1.0): (
        0.9929299218892663, 0.939005860326783, 0.9005543806027236,
        0.8994552061205433, 0.8855559290744627, 0.8969417485930554,
    ),
    (0.9, 1.0, 10.0): (
        1.1158451278614192, 2.996022739338245, 8.803937943613581,
        9.20043847884504, 33.8116424244483, 73.31818445519875,
    ),
    (0.9, 1.0, 10000.0): (
        1.5765654717345863, 94.86819805016097, 8216.749753645385,
        9857.91249807305, 2122219.6493884856, 51378019.94384686,
    ),
    (0.9, 100.0, 0.01): (
        0.7702012810345372, 0.0742658355039757, 0.005976176422451996,
        0.0053959558807347464, 0.0002738468232383792, 4.8442541774162386e-05,
    ),
    (0.9, 100.0, 1.0): (
        0.9720623896595001, 0.7534013590067024, 0.5710791699323635,
        0.5646622777733137, 0.4047194828455698, 0.3322618602046826,
    ),
    (0.9, 100.0, 10.0): (
        1.0907125516469864, 2.382932291010631, 5.580841725876244,
        5.778103548991385, 16.099956953974676, 29.569482512158125,
    ),
    (0.9, 100.0, 10000.0): (
        1.5406788603513661, 75.35659128650886, 5208.349075722585,
        6191.34400297994, 1015752.8553066357, 20930180.045717057,
    ),
    (0.99, 0.001, 0.01): (
        0.7927479481294208, 0.0986690904939744, 0.011047733912798013,
        0.010190084661213603, 0.010467487730944277, 0.07753011059399813,
    ),
    (0.99, 0.001, 1.0): (
        1.000317069850313, 1.008915290452782, 1.0584627680957583,
        1.063249858745317, 1.9989360689667006, 8.83942045431148,
    ),
    (0.99, 0.001, 10.0): (
        1.123599372212108, 3.2212926312902908, 10.353240325961133,
        10.869446291502626, 51.43922427410182, 176.38491865626492,
    ),
    (0.99, 0.001, 10000.0): (
        1.5895440141247097, 102.98371988533901, 9668.89568815965,
        11638.407390411268, 2761915.93164915, 70854445.19758637,
    ),
    (0.99, 1.0, 0.01): (
        0.7926803190978534, 0.09838263451941305, 0.01036017657561854,
        0.009460565213760692, 0.0007353655291375326, 0.00022420266752570816,
    ),
    (0.99, 1.0, 1.0): (
        0.9993325073341738, 0.9940594089882451, 0.9900596573714437,
        0.98994130153795, 0.9883933029025735, 0.9896548781420696,
    ),
    (0.99, 1.0, 10.0): (
        1.121429393874847, 3.1460470809378287, 9.675573988962988,
        10.129632618632394, 39.19441342225676, 87.47704731267265,
    ),
    (0.99, 1.0, 10000.0): (
        1.5840969190950207, 99.49873114831817, 9029.814745586164,
        10854.04327456529, 2471818.1789208376, 61871270.73227803,
    ),
    (0.99, 100.0, 0.01): (
        0.7919677585588274, 0.09713983314994676, 0.009905141253742896,
        0.009024229960305956, 0.0005794462694307491, 0.00011393818049013871,
    ),
    (0.99, 100.0, 1.0): (
        0.9971963404798805, 0.9723259688521937, 0.9459727280317454,
        0.9449128993034712, 0.9141939208470296, 0.8964605193386295,
    ),
    (0.99, 100.0, 10.0): (
        1.1188752075740496, 3.0748010691290686, 9.244401937653056,
        9.669222851046824, 36.39305518096714, 79.89008516921932,
    ),
    (0.99, 100.0, 10000.0): (
        1.5804536347976588, 97.23387566384582, 8627.378317697896,
        10360.758398875778, 2296234.9007959845, 56557295.48179915,
    ),
}


def mpmath_gamma_ratio(x, q):
    """Gamma(x + q) / Gamma(x) from mpmath's log-Gamma, with 40 digits beyond
    the about log10(x) that the difference of the two cancels."""
    import mpmath as mp

    with mp.workdps(40 + max(0, math.ceil(math.log10(x)))):
        x = mp.mpf(x)
        return float(mp.exp(mp.loggamma(x + q) - mp.loggamma(x)))


def mpmath_tss_moment(alpha, lam, t, q):
    """E[X_t**q] of the tempered stable clock from the transform phi = exp(-psi)
    alone, at 30 digits:

        q in (0,1):  E[X**q] = q/Gamma(1-q) int (1 - phi(u)) u**(-q-1) du
        q in (1,2):  E[X**q] = E[X * X**(q-1)]
                   = (q-1)/Gamma(2-q) int (m1 - psi'(u) phi(u)) u**(-q) du

    Tanh-sinh on [0, u_lo] after u = w**(1/k), which flattens the endpoint
    power, then on unit steps of log u up to psi(U) = 300, plus the tail
    beyond U in closed form (phi(U) = e**-300 dropped).
    """
    import mpmath as mp

    with mp.workdps(30):
        a, lam, t, q = mp.mpf(alpha), mp.mpf(lam), mp.mpf(t), mp.mpf(q)
        m1 = t * a * lam ** (a - 1)
        scale = t * lam ** a

        def psi(u):
            return scale * mp.expm1(a * mp.log1p(u / lam))

        if q < 1:
            def f(u):
                return -mp.expm1(-psi(u)) * u ** (-q - 1)
            k, prefactor = 1 - q, q / mp.gamma(1 - q)
        else:
            def f(u):
                return -m1 * mp.expm1((a - 1) * mp.log1p(u / lam) - psi(u)) * u ** (-q)
            k, prefactor = 2 - q, (q - 1) / mp.gamma(2 - q)
        u_lo = min(lam, 1 / m1) / 100
        big_u = lam * mp.expm1(mp.log1p(300 / scale) / a)
        s_lo, s_hi = mp.log(u_lo), mp.log(big_u)
        steps = int(mp.ceil(s_hi - s_lo))
        head = mp.quad(lambda w: f(w ** (1 / k)) * w ** (1 / k - 1) / k, [0, u_lo ** k])
        body = mp.quad(lambda s: f(mp.exp(s)) * mp.exp(s),
                       [s_lo + (s_hi - s_lo) * j / steps for j in range(steps + 1)])
        tail = big_u ** (-q) / q if q < 1 else m1 * big_u ** (1 - q) / (q - 1)
        return prefactor * (head + body + tail)


spec_strategy = st.one_of(
    st.builds(SubordinatorSpec.tss,
              st.floats(0.2, 0.9), st.floats(0.2, 5.0)),
    st.builds(SubordinatorSpec.gamma, st.floats(0.2, 5.0)),
)


class TestTypes:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            TssParams(0.0, 1.0)
        with pytest.raises(ValueError):
            TssParams(1.0, 1.0)
        with pytest.raises(ValueError):
            TssParams(0.5, 0.0)
        with pytest.raises(ValueError):
            GammaParams(0.0)

    def test_spec_kind_matches_params(self):
        # the kind is read from the type of the parameters, which is checked
        assert SubordinatorSpec(TssParams(0.5, 1.0)).kind == "tss"
        assert SubordinatorSpec(GammaParams(1.0)).kind == "gamma"
        assert SubordinatorSpec.tss(0.5, 1.0) == SubordinatorSpec(TssParams(0.5, 1.0))
        assert SubordinatorSpec.gamma(1.0) == SubordinatorSpec(GammaParams(1.0))
        with pytest.raises(ValueError, match="TssParams or GammaParams"):
            SubordinatorSpec(object())

    def test_path_invariants(self):
        # sample_path returns the clock values as an array: nonnegative and
        # nondecreasing, one row per path
        grid = np.array([0.0, 1.0, 2.0])
        spec = SubordinatorSpec.tss(0.6, 1.0)
        block = sample_path(spec, grid, derive_stream(11, 4), size=4)
        assert block.shape == (4, 3)
        assert np.all(block >= 0.0) and np.all(np.diff(block, axis=1) >= 0.0)


class TestSamplePath:
    def test_gamma_single_point_mean(self):
        # value at t=1 for nu=1 is Gamma(1,1); vectorized draws are the same
        # construction as 1e5 single-point paths
        draws = sample_increment(SubordinatorSpec.gamma(1.0), 1.0,
                                 derive_stream(11, 0), size=100_000)
        assert mean_z(draws, 1.0) < 3.0

    def test_tss_single_point_mean(self):
        draws = sample_increment(SubordinatorSpec.tss(0.7, 1.0), 10.0,
                                 derive_stream(11, 1), size=100_000)
        assert mean_z(draws, 7.0) < 3.0

    @given(spec=spec_strategy, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_paths_nondecreasing(self, spec, seed):
        grid = np.array([0.5, 1.0, 1.25, 4.0, 9.0])
        path = sample_path(spec, grid, derive_stream(seed, 0), size=1)[0]
        assert path[0] >= 0.0
        assert np.all(np.diff(path) >= 0.0)

    def test_grid_starting_at_zero(self):
        grid = np.array([0.0, 1.0])
        path = sample_path(SubordinatorSpec.gamma(0.5), grid, derive_stream(11, 2), size=1)
        assert path[0, 0] == 0.0

    # on TSS the gaps 1 and 298 take the thinning and the double-rejection
    # samplers
    CLOCKS = [SubordinatorSpec.gamma(1.0), SubordinatorSpec.tss(0.7, 1.0)]
    GRID = [1.0, 2.0, 300.0]

    @pytest.mark.parametrize("spec", CLOCKS)
    def test_empty_grid_raises(self, spec):
        # its own message, not numpy's concatenate error
        with pytest.raises(ValueError, match=r"^times must be a nonempty finite 1-d array"):
            sample_path(spec, [], derive_stream(11, 3), size=2)

    @pytest.mark.parametrize("spec", CLOCKS)
    def test_negative_size_raises(self, spec):
        # one message on both clocks, not a math domain or numpy shape error;
        # a grid from 0 starts with a zero gap, which draws nothing
        for grid in (self.GRID, [0.0, 1.0]):
            with pytest.raises(ValueError, match=r"^size must be nonnegative, got -1$"):
                sample_path(spec, grid, derive_stream(11, 3), size=-1)

    @pytest.mark.parametrize("spec", CLOCKS)
    def test_zero_size_is_an_empty_block(self, spec):
        assert sample_path(spec, self.GRID, derive_stream(11, 3), size=0).shape == (0, 3)

    @pytest.mark.parametrize("spec", [SubordinatorSpec.gamma(1.0),
                                      SubordinatorSpec.tss(0.6, 1.0)])
    def test_increment_stationarity_ks(self, spec):
        # distribution of value(t) - value(s) equals that of value(t-s)
        n = 10_000
        s, t = 1.0, 2.5
        grid = np.array([s, t])
        incs = np.diff(sample_path(spec, grid, derive_stream(12, 0), size=n), axis=1)[:, 0]
        direct = sample_increment(spec, t - s, derive_stream(12, 1), size=n)
        assert stats.ks_2samp(incs, direct).pvalue > 0.01


class TestGammaMoments:
    def test_exponential_mean(self):
        assert gamma_moment(GammaParams(1.0), 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_shape_two_mean(self):
        assert gamma_moment(GammaParams(1.0), 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_half_moment_identity(self):
        target = math.sqrt(math.pi) / 2.0
        assert abs(gamma_moment(GammaParams(2.0), 2.0, 0.5) - target) < 1e-12

    @pytest.mark.parametrize("x", [1e4, 1e12])
    @pytest.mark.parametrize("nu", [1.0, 0.5])
    def test_integer_orders_are_exact(self, x, nu):
        # Gamma(x + 1) / Gamma(x) = x and Gamma(x + 2) / Gamma(x) = x(x + 1),
        # x = t/nu, correctly rounded, for one time and for an array
        def exact(x, q):
            return float(Fraction(x) if q == 1.0 else Fraction(x) * (Fraction(x) + 1))

        for q in (1.0, 2.0):
            assert gamma_moment(GammaParams(nu), x * nu, q) == exact(x, q)
            assert gamma_moment(GammaParams(nu), [3.0 * nu, x * nu], q).tolist() == \
                [exact(3.0, q), exact(x, q)]

    def test_asymptotic_values(self):
        assert subordinator_moment_asymptotic(SubordinatorSpec.gamma(1.0), 1.0, 1.0) == 1.0
        assert subordinator_moment_asymptotic(SubordinatorSpec.gamma(2.0), 20.0, 2.0) == \
            pytest.approx(100.0)

    def test_asymptotic_ratio_large_t(self):
        spec = SubordinatorSpec.gamma(1.0)
        ratio = (gamma_moment(spec.params, 1000.0, 1.6)
                 / subordinator_moment_asymptotic(spec, 1000.0, 1.6))
        assert abs(ratio - 1.0) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_moment(GammaParams(1.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_moment(GammaParams(1.0), 1.0, 0.0)

    @pytest.mark.parametrize("q", [0.1, 0.6, 1.1, 1.6, 1.9, 2.5])
    def test_against_mpmath_at_quarter_decades(self, q):
        # x = t/nu at every quarter decade from 1 to 1e20, in one array call:
        # log-Gamma below the series switch (x < 50 here), the series above
        x = np.array([10.0 ** (k / 4) for k in range(81)])
        ref = np.array([mpmath_gamma_ratio(v, q) for v in x.tolist()])
        got = gamma_moment(GammaParams(1.0), x, q)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("q", [1e-6, 0.5, 1.0 + 1e-9, 3.7, 10.0, 40.0])
    def test_series_holds_from_its_switch(self, q):
        # the switch comes from the first two omitted terms: c_12 vanishes at
        # q = 1/2, and for small q c_11 is O(q**2) while c_12 is O(q)
        _, switch = subordinators._lgamma_ratio_series(q)
        x = switch * np.array([1.0, 1.5, 3.0, 10.0, 1e2, 1e4])
        ref = np.array([mpmath_gamma_ratio(v, q) for v in x.tolist()])
        got = gamma_moment(GammaParams(1.0), x, q)
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-15

    def test_series_switch_is_low_for_small_orders(self):
        # below the switch log-Gamma loses about log10(x lg x) digits
        switches = [subordinators._lgamma_ratio_series(q)[1]
                    for q in np.linspace(0.01, 3.0, 300).tolist() if q != 1.0]
        assert max(switches) < 50.0

    def test_asymptotic_underflow_raises(self):
        # (rate t)**q is positive, so a 0 is an underflow, not a value
        with pytest.raises(FloatingPointError, match=r"^the order-1\.6 moment \(rate\*t\)\*\*q "
                                                     r"underflows to 0 at t = 1e-320$"):
            subordinator_moment_asymptotic(SubordinatorSpec.gamma(1.0), 1e-320, 1.6)

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_nonfinite_order_raises(self, q):
        # an infinite order would give an inf moment and a NaN ratio
        with pytest.raises(ValueError, match="q must be positive and finite"):
            gamma_moment(GammaParams(1.0), [1.0, 2.0], q)


class TestTssMoments:
    def test_mean_exact(self):
        for alpha, lam, t in [(0.7, 1.0, 10.0), (0.3, 2.5, 3.0)]:
            p = TssParams(alpha, lam)
            assert tss_moment(p, t, 1.0) == pytest.approx(
                t * alpha * lam ** (alpha - 1), rel=1e-14)

    def test_second_moment_exact(self):
        p = TssParams(0.7, 1.0)
        assert tss_moment(p, 10.0, 2.0) == pytest.approx(49.0 + 2.1, rel=1e-12)

    @pytest.mark.parametrize("lam,inside,t,q", [(1e-3, 1e307, 1e308, 1.0),
                                                (1.0, 1e150, 1e200, 2.0)])
    def test_integer_order_beyond_float_range_raises(self, lam, inside, t, q):
        # the mean, and the squared mean, overflow at t: an OverflowError for
        # one time and for an array, never inf or a numpy warning
        p = TssParams(0.7, lam)
        assert math.isfinite(tss_moment(p, inside, q))
        for times in (t, [inside, t]):
            with pytest.raises(OverflowError, match=f"order-{q} moment is beyond the float range"):
                tss_moment(p, times, q)

    @pytest.mark.parametrize("alpha,lam,inside,t", [(0.7, 1e-3, 1e307, 1e308),
                                                    (0.9, 1e10, 1e299, 1e300)])
    def test_fractional_order_setup_beyond_float_range_raises(self, alpha, lam, inside, t):
        # the moment at q = 0.6 is finite at t, but its quadrature starts from
        # the mean (inf at 1e308) and t lam**alpha (inf at 1e300, with a
        # finite mean of 9e298): an OverflowError, not a math domain error
        p = TssParams(alpha, lam)
        assert math.isfinite(tss_moment(p, inside, 0.6))
        for times in (t, [inside, t]):
            with pytest.raises(OverflowError, match=r"order-0\.6 moment's set-up \(the "
                               r"clock's mean, variance or t lam\*\*alpha\) is beyond"):
                tss_moment(p, times, 0.6)

    def test_asymptotic_beyond_float_range_raises(self):
        # rate*t itself overflows at q = 1; at q = 2 only its square does
        spec = SubordinatorSpec.tss(0.7, 1e-3)
        for t, q in [(1e308, 1.0), (1e200, 2.0)]:
            with pytest.raises(OverflowError):
                subordinator_moment_asymptotic(spec, t, q)

    @pytest.mark.parametrize("key", sorted(IG_MOMENTS))
    def test_fractional_against_bessel_closed_form(self, key):
        lam, t, q = key
        value = tss_moment(TssParams(0.5, lam), t, q)
        assert value == pytest.approx(IG_MOMENTS[key], rel=1e-9)

    def test_asymptotic_ratio_series(self):
        spec = SubordinatorSpec.tss(0.7, 1.0)
        for q in (1.1, 1.6):
            ratios = [tss_moment(spec.params, t, q) / subordinator_moment_asymptotic(spec, t, q)
                      for t in (10.0, 100.0, 1000.0, 10000.0)]
            gaps = [abs(r - 1.0) for r in ratios]
            assert gaps[-1] < 0.05
            assert gaps[-3] > gaps[-2] > gaps[-1]

    def test_asymptotic_ratio_q08(self):
        spec = SubordinatorSpec.tss(0.5, 2.0)
        ratio = (tss_moment(spec.params, 1000.0, 0.8)
                 / subordinator_moment_asymptotic(spec, 1000.0, 0.8))
        assert abs(ratio - 1.0) < 0.05

    def test_asymptotic_ratio_q14_large_t(self):
        spec = SubordinatorSpec.tss(0.7, 1.0)
        ratio = tss_moment(spec.params, 1e4, 1.4) / subordinator_moment_asymptotic(spec, 1e4, 1.4)
        assert abs(ratio - 1.0) < 0.02

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    @pytest.mark.parametrize("t", [1e19, 1e100])
    def test_asymptotic_ratio_far_out(self, alpha, t):
        # t lam**alpha far above 1e10/alpha: exp(-reach) of the cut-off rounds
        # to 1, and the cut-off is formed from expm1 instead
        spec = SubordinatorSpec.tss(alpha, 1.0)
        for q in (0.6, 1.6):
            ratio = tss_moment(spec.params, t, q) / subordinator_moment_asymptotic(spec, t, q)
            assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_value(self):
        assert subordinator_moment_asymptotic(SubordinatorSpec.tss(0.7, 1.0), 10.0, 1.0) == \
            pytest.approx(7.0, rel=1e-14)

    def test_quadrature_near_integers_continuous(self):
        p = TssParams(0.7, 1.0)
        m1 = tss_mean(p, 10.0)
        m2 = m1 ** 2 + tss_variance(p, 10.0)
        assert tss_moment(p, 10.0, 1.0 - 1e-6) == pytest.approx(m1, rel=1e-5)
        assert tss_moment(p, 10.0, 1.0 + 1e-6) == pytest.approx(m1, rel=1e-5)
        assert tss_moment(p, 10.0, 2.0 - 1e-6) == pytest.approx(m2, rel=1e-5)

    def test_domain(self):
        p = TssParams(0.5, 1.0)
        with pytest.raises(ValueError):
            tss_moment(p, 0.0, 1.0)
        with pytest.raises(ValueError):
            tss_moment(p, 1.0, 2.5)
        with pytest.raises(ValueError):
            tss_moment(p, 1.0, 0.0)

    def test_quadrature_failure_surfaces(self, monkeypatch):
        def midpoint_rule(p, n):
            # a deliberately poor rule: ignores the weight x**(p-1), so the
            # n- and n/2-node results disagree far beyond the tolerance
            return (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)

        monkeypatch.setattr(subordinators, "_gauss_rule", midpoint_rule)
        with pytest.raises(QuadratureError):
            tss_moment(TssParams(0.5, 1.0), 1.0, 0.6)

    def test_non_finite_result_surfaces(self, monkeypatch):
        def nan_rule(p, n):
            return np.full(n, 0.5), np.full(n, np.nan)

        monkeypatch.setattr(subordinators, "_gauss_rule", nan_rule)
        with pytest.raises(QuadratureError):
            tss_moment(TssParams(0.5, 1.0), 1.0, 1.4)

    def test_panel_limit_surfaces(self):
        # at alpha = 1e-6 the integrand spans about 1e6 decades of u
        with pytest.raises(QuadratureError, match="panels"):
            tss_moment(TssParams(1e-6, 1.0), 1.0, 0.5)

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.05, 1e-6, 2.0 ** -53])
    def test_gauss_rule_exact_for_polynomials(self, p):
        # an n-point Gauss rule integrates x**k x**(p-1) exactly up to
        # k = 2n-1, up to rounding at the scale of the total weight 1/p
        x, w = subordinators._gauss_rule(p, 12)
        for k in (0, 1, 7, 23):
            assert abs(w @ x ** k - 1.0 / (k + p)) <= 1e-13 * w.sum()
        assert np.all((x > 0.0) & (x < 1.0) & (w > 0.0))

    @pytest.mark.parametrize("alpha,lam,t", sorted(TSS_REFERENCE))
    def test_against_mpmath_reference(self, alpha, lam, t):
        params = TssParams(alpha, lam)
        for q, expected in zip(REFERENCE_Q, TSS_REFERENCE[alpha, lam, t]):
            assert tss_moment(params, t, q) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("alpha,lam", sorted({key[:2] for key in TSS_REFERENCE}))
    def test_against_mpmath_reference_as_arrays(self, alpha, lam):
        # the table again, one array call per (alpha, lambda, q)
        params = TssParams(alpha, lam)
        t = np.array(REFERENCE_T)
        for j, q in enumerate(REFERENCE_Q):
            expected = [TSS_REFERENCE[alpha, lam, u][j] for u in REFERENCE_T]
            np.testing.assert_allclose(tss_moment(params, t, q), expected, rtol=1e-8)

    def test_large_t_against_cumulant_expansion(self):
        # beyond the mpmath table (t <= 1e4): expanding x**q about the mean mu t
        # gives (mu t)**q (1 + C1/t + C2/t**2 + O(t**-3)), from the cumulants
        # per unit time kappa_j = alpha Gamma(j - alpha)/Gamma(1 - alpha)
        # lam**(alpha - j), with math.gamma alone.  From 1e6 on the
        # quadrature meets it to rounding; below, the gap is the omitted
        # t**-3 term, so it falls about 1000x per decade down to rounding
        def binom(q, k):
            return math.prod((q - i) / (i + 1) for i in range(k))

        far = 10.0 ** np.arange(6.0, 9.01, 0.25)
        near = 10.0 ** np.arange(3.0, 5.01, 0.25)
        falls = []
        for alpha, lam in [(0.05, 1.0), (0.2, 1.0), (0.5, 3.0), (0.7, 1.0), (0.95, 0.01)]:
            kappa = [alpha * math.gamma(j - alpha) / math.gamma(1.0 - alpha)
                     * lam ** (alpha - j) for j in range(4)]
            mu = kappa[1]
            for q in [0.1, 0.6, 1.1, 1.6, 1.9]:
                c1 = binom(q, 2) * kappa[2] / mu ** 2
                c2 = binom(q, 3) * kappa[3] / mu ** 3 + 3.0 * binom(q, 4) * kappa[2] ** 2 / mu ** 4
                t = np.concatenate([near, far])
                expansion = (mu * t) ** q * (1.0 + c1 / t + c2 / t ** 2)
                gap = np.abs(tss_moment(TssParams(alpha, lam), t, q) / expansion - 1.0)
                assert gap[near.size:].max() <= 5e-15, (alpha, lam, q)
                # a decade is four quarter-decade steps
                falls += [(gap[i] / gap[i + 4], alpha, lam, q, t[i])
                          for i in range(near.size - 4) if gap[i + 4] > 1e-13]
        assert len(falls) > 20
        assert min(falls)[0] >= 500.0, min(falls)

    @pytest.mark.parametrize("spec", [SubordinatorSpec.tss(0.7, 1.0),
                                      SubordinatorSpec.tss(0.2, 100.0),
                                      SubordinatorSpec.gamma(1.0)])
    @pytest.mark.parametrize("q", [0.3, 1.0, 1.6, 2.0])
    def test_array_matches_scalar(self, spec, q):
        t = np.array([1e-2, 0.5, 1.0, 3.0, 99.0, 1e4])
        scalar = np.array([subordinator_moment(spec, u, q) for u in t.tolist()])
        np.testing.assert_allclose(subordinator_moment(spec, t, q), scalar,
                                   rtol=1e-14, atol=0.0)
        if spec.kind == "tss":
            np.testing.assert_allclose(tss_moment(spec.params, t, q), scalar,
                                       rtol=1e-14, atol=0.0)
        assert isinstance(subordinator_moment(spec, 3.0, q), float)

    def test_panel_limit_in_array_names_t(self):
        # at alpha = 0.05 only the tiny time spans more than _MAX_PANELS
        params = TssParams(0.05, 1.0)
        assert tss_moment(params, np.array([1.0, 10.0]), 0.5).shape == (2,)
        with pytest.raises(QuadratureError, match=r"panels .* t=1e-150,"):
            tss_moment(params, np.array([1.0, 1e-150, 10.0]), 0.5)

    def test_array_domain(self):
        p = TssParams(0.5, 1.0)
        for bad in ([1.0, 0.0], [1.0, math.inf], [[1.0]]):
            with pytest.raises(ValueError):
                tss_moment(p, np.array(bad), 0.6)
            with pytest.raises(ValueError):
                gamma_moment(GammaParams(1.0), np.array(bad), 0.6)

    @pytest.mark.parametrize("q", [0.5, 1.6])
    def test_reference_generator_reproduces_table(self, q):
        expected = TSS_REFERENCE[0.7, 1.0, 10.0][REFERENCE_Q.index(q)]
        assert float(mpmath_tss_moment(0.7, 1.0, 10.0, q)) == pytest.approx(
            expected, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("q", [0.05, 0.5])
    def test_small_alpha_against_sampler(self, alpha, q):
        # the oracle at small alpha against 2e5 exact draws of X_1
        spec = SubordinatorSpec.tss(alpha, 1.0)
        draws = sample_increment(spec, 1.0, derive_stream(14, int(100 * alpha)),
                                 size=200_000)
        assert mean_z(draws ** q, tss_moment(spec.params, 1.0, q)) < 3.0


class TestDispatchAndConsistency:
    def test_dispatch(self):
        g = SubordinatorSpec.gamma(2.0)
        t_spec = SubordinatorSpec.tss(0.5, 1.0)
        assert subordinator_moment(g, 3.0, 1.0) == gamma_moment(g.params, 3.0, 1.0)
        assert subordinator_moment(t_spec, 3.0, 1.0) == tss_moment(t_spec.params, 3.0, 1.0)
        # mean clock rates 1/nu and alpha*lam**(alpha-1) = 0.5 here
        assert g.rate == 0.5 and t_spec.rate == 0.5
        for spec in (g, t_spec):
            assert subordinator_moment_asymptotic(spec, 3.0, 1.5) == \
                pytest.approx(1.5 ** 1.5, rel=1e-14)
        with pytest.raises(ValueError):
            subordinator_moment_asymptotic(g, 0.0, 1.5)

    @pytest.mark.parametrize("spec", [SubordinatorSpec.gamma(1.0),
                                      SubordinatorSpec.tss(0.7, 1.0)])
    def test_moment_increasing_in_t(self, spec):
        for q in (0.6, 1.3):
            values = [subordinator_moment(spec, t, q)
                      for t in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0)]
            assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("spec,sid", [(SubordinatorSpec.gamma(1.0), 0),
                                          (SubordinatorSpec.tss(0.7, 1.0), 1)])
    @pytest.mark.parametrize("q", [0.6, 1.0, 1.6])
    def test_mc_moment_consistency(self, spec, sid, q):
        n = 100_000
        t = 10.0
        draws = sample_increment(spec, t, derive_stream(13, sid), size=n)
        powered = draws ** q
        assert mean_z(powered, subordinator_moment(spec, t, q)) < 3.0


if __name__ == "__main__":
    # print TSS_REFERENCE (about half an hour on one core)
    print("TSS_REFERENCE = {")
    for key in itertools.product(REFERENCE_ALPHA, REFERENCE_LAM, REFERENCE_T):
        values = [float(mpmath_tss_moment(*key, q)) for q in REFERENCE_Q]
        print(f"    {key!r}: (")
        for row in range(0, len(values), 3):
            print("        " + " ".join(f"{v!r}," for v in values[row:row + 3]))
        print("    ),", flush=True)
    print("}")
