# Re-render one figure and byte-compare it against its committed
# golden (results/golden/<fig>.txt). Run through ctest; by hand:
#   cmake -DMELODY=build/tools/melody -DFIG=fig01 \
#         -DGOLDEN=results/golden/fig01.txt -DOUT=fig01.txt \
#         -P tests/golden_check.cmake
# A mismatch means the figure's bytes moved: either fix the model
# change, or regenerate the golden as EXPERIMENTS.md describes.
execute_process(
    COMMAND ${MELODY} sweep --no-cache --jobs 1 ${FIG}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "melody sweep ${FIG} exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "${FIG}: rendered bytes differ from the golden\n"
        "  got:    ${OUT}\n"
        "  golden: ${GOLDEN}")
endif()
